package colocation_test

import (
	"encoding/json"
	"testing"

	"repro/internal/colocation"
)

// FuzzColocationConfig fuzzes the strict wire-config decoder shared by
// the CLI and POST /v1/colocate, in the ReadJSON/ReadGeoJSON mold:
// arbitrary bytes must either produce an error or a Config that
// validates and survives a marshal/reparse round trip unchanged.
func FuzzColocationConfig(f *testing.F) {
	seeds := []string{
		`{"distance":2,"minPI":0.4}`,
		`{"distance":0,"minPI":1}`,
		`{"distance":1.5,"minPI":0.25,"maxSize":3,"parallelism":4}`,
		`{"distance":1,"minPI":0.5,"engine":"joinless"}`,
		`{"distance":1,"minPI":0.5,"engine":"clique","topK":2}`,
		`{"distance":1,"minPI":0.5,"engine":"starjoin"}`,
		`{"distance":1,"minPI":0.5,"engine":""}`,
		`{"distance":1,"minPI":0.5,"engine":null,"maxSize":2}`,
		`{"distance":1,"minPI":0.5,"engine":1}`,
		`{"distance":1,"minPI":0.5,"topK":-1}`,
		`{"distance":1e-9,"minPI":0.0001}`,
		`{"distance":-1,"minPI":0.5}`,
		`{"distance":1,"minPI":0.5,"unknown":true}`,
		`{"distance":1,"minPI":0.5} trailing`,
		`{"minPI":0.5}`,
		`{}`,
		`null`,
		`[]`,
		`{"distance":"far","minPI":0.5}`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := colocation.ParseConfig(data)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails Validate: %v (%+v)", verr, cfg)
		}
		out, merr := json.Marshal(cfg)
		if merr != nil {
			t.Fatalf("accepted config does not marshal: %v", merr)
		}
		back, perr := colocation.ParseConfig(out)
		if perr != nil {
			t.Fatalf("marshalled config does not reparse: %v (%s)", perr, out)
		}
		if back != cfg {
			t.Fatalf("round trip changed config: %+v -> %+v", cfg, back)
		}
	})
}
