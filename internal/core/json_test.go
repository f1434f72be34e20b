package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mining"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// TestConfigJSONRoundTrip pins the request-body contract: every Config
// field survives marshal → unmarshal, including the enum types and the
// nested extraction options.
func TestConfigJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"typical", Config{
			Algorithm:  AlgAprioriKCPlus,
			MinSupport: 0.25,
		}},
		{"everything", Config{
			Extraction: transact.Options{
				Topological:     true,
				IncludeDisjoint: true,
				Distance:        true,
				Thresholds:      qsr.DistanceThresholds{VeryCloseMax: 10, CloseMax: 50},
				IncludeFarFrom:  true,
				Directional:     true,
				IncludeIsA:      true,
				Granularity:     transact.InstanceLevel,
				Discretizer:     transact.EqualWidth{Bins: 4},
				Parallelism:     3,
			},
			Algorithm:     AlgAprioriKC,
			MinSupport:    0.07,
			Dependencies:  []mining.Pair{{A: "contains_street", B: "contains_illuminationPoint"}, {A: "x", B: "y"}},
			Parallelism:   8,
			MinConfidence: 0.9,
			GenerateRules: true,
			PostFilter:    MaximalFilter,
		}},
		{"thresholds discretizer", Config{
			Extraction: transact.Options{
				Topological: true,
				Discretizer: transact.Thresholds{Cuts: []float64{3.2}, Labels: []string{"low", "high"}},
			},
			Algorithm:  AlgApriori,
			MinSupport: 0.5,
		}},
		{"equal frequency discretizer", Config{
			Extraction: transact.Options{
				Topological: true,
				Discretizer: transact.EqualFrequency{Bins: 3},
			},
			MinSupport: 0.5,
			PostFilter: ClosedFilter,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back Config
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !reflect.DeepEqual(tc.cfg, back) {
				t.Errorf("round trip changed the config:\n  in:  %+v\n  out: %+v\n  json: %s", tc.cfg, back, data)
			}
			// The encoding must be deterministic: the server's result
			// cache keys on the marshaled bytes.
			again, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(data) != string(again) {
				t.Errorf("marshal not deterministic: %s vs %s", data, again)
			}
		})
	}
}

// TestConfigJSONEnumNames pins the canonical enum spellings on the wire.
func TestConfigJSONEnumNames(t *testing.T) {
	data, err := json.Marshal(Config{
		Algorithm:  AlgAprioriKCPlus,
		MinSupport: 0.5,
		PostFilter: ClosedFilter,
		Extraction: transact.Options{Topological: true, Granularity: transact.InstanceLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"algorithm":"apriori-kc+"`,
		`"postFilter":"closed"`,
		`"granularity":"instance"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshaled config %s missing %s", data, want)
		}
	}
	for _, retired := range []string{`"index"`, `"counting"`} {
		if strings.Contains(string(data), retired) {
			t.Errorf("marshaled config %s names the retired %s member", data, retired)
		}
	}

	// The retired extraction "index" member still decodes for old
	// clients and journaled requests: every former spelling yields the
	// same Config as a document without the member, which re-marshals
	// to the same bytes (one result-cache entry).
	const plain = `{"algorithm":"apriori","minSupport":0.5,"extraction":{"topological":true,"granularity":"instance"}}`
	var want Config
	if err := json.Unmarshal([]byte(plain), &want); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"rtree", "grid", "none", ""} {
		body := strings.Replace(plain, `"topological":true`, `"topological":true,"index":"`+kind+`"`, 1)
		var got Config
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("index %q: %v", kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("index %q decoded to %+v, want %+v", kind, got, want)
		}
		gotBytes, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBytes) != string(wantBytes) {
			t.Errorf("index %q re-marshals to %s, want %s", kind, gotBytes, wantBytes)
		}
	}

	// The retired engine names decode as apriori-kc+, and the retired
	// "counting" member decodes as a no-op: every combination yields
	// the Config of the canonical apriori-kc+ document without the
	// member, and re-marshals to its bytes (one result-cache entry).
	const canonical = `{"algorithm":"apriori-kc+","minSupport":0.5}`
	var kcplus Config
	if err := json.Unmarshal([]byte(canonical), &kcplus); err != nil {
		t.Fatal(err)
	}
	if kcplus.Algorithm != AlgAprioriKCPlus {
		t.Fatalf("canonical document decoded to %v", kcplus.Algorithm)
	}
	for _, alg := range []string{"apriori-kc+", "fpgrowth-kc+", "fpgrowth", "eclat-kc+", "eclat"} {
		for _, counting := range []string{"", `,"counting":"vertical"`, `,"counting":"horizontal"`, `,"counting":""`} {
			body := `{"algorithm":"` + alg + `","minSupport":0.5` + counting + `}`
			var got Config
			if err := json.Unmarshal([]byte(body), &got); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if !reflect.DeepEqual(got, kcplus) {
				t.Errorf("%s decoded to %+v, want %+v", body, got, kcplus)
			}
			gotBytes, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBytes) != canonical {
				t.Errorf("%s re-marshals to %s, want %s", body, gotBytes, canonical)
			}
		}
	}
}

// TestConfigJSONRejectsBadInput pins the error behaviour for malformed
// request bodies: unknown enum names, unknown keys, and structural junk
// all fail with a descriptive error instead of mining with defaults.
func TestConfigJSONRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown algorithm", `{"algorithm":"apriori-kd+","minSupport":0.5}`, "unknown algorithm"},
		{"unknown post filter", `{"algorithm":"apriori","postFilter":"open"}`, "unknown post filter"},
		{"unknown counting", `{"algorithm":"apriori","counting":"diagonal"}`, "unknown counting strategy"},
		{"numeric counting", `{"algorithm":"apriori","counting":3}`, "decoding config"},
		{"unknown engine", `{"algorithm":"fpmax","minSupport":0.5}`, "unknown algorithm"},
		{"unknown granularity", `{"algorithm":"apriori","extraction":{"granularity":"galaxy"}}`, "unknown granularity"},
		{"unknown index", `{"algorithm":"apriori","extraction":{"index":"btree"}}`, "unknown index kind"},
		{"unknown legacy index", `{"algorithm":"apriori","extraction":{"index":"kd"}}`, "unknown index kind"},
		{"numeric index", `{"algorithm":"apriori","extraction":{"index":3}}`, "decoding config"},
		{"unknown discretizer", `{"algorithm":"apriori","extraction":{"discretizer":{"kind":"psychic"}}}`, "unknown discretizer kind"},
		{"unknown field", `{"algoritm":"apriori"}`, "unknown field"},
		{"half dependency", `{"algorithm":"apriori","dependencies":[{"a":"x"}]}`, "dependency pair"},
		{"not an object", `[1,2,3]`, "decoding config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			err := json.Unmarshal([]byte(tc.body), &cfg)
			if err == nil {
				t.Fatalf("unmarshal %s succeeded, want error containing %q", tc.body, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigJSONDefaults: an omitted field decodes to the documented
// default (apriori algorithm, no post filter, zero
// extraction — which RunContext replaces with DefaultOptions).
func TestConfigJSONDefaults(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"minSupport":0.4}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := Config{MinSupport: 0.4}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("decoded %+v, want %+v", cfg, want)
	}
	if !cfg.Extraction.IsZero() {
		t.Error("omitted extraction must decode to the zero Options")
	}
}

// TestConfigJSONCustomDiscretizerFails: a Config holding a custom
// Discretizer implementation has no wire form and must say so.
func TestConfigJSONCustomDiscretizerFails(t *testing.T) {
	cfg := Config{
		Extraction: transact.Options{Topological: true, Discretizer: customDisc{}},
		MinSupport: 0.5,
	}
	if _, err := json.Marshal(cfg); err == nil {
		t.Fatal("marshal with custom discretizer must fail")
	}
}

type customDisc struct{}

func (customDisc) Fit([]float64) (*transact.FittedDiscretizer, error) {
	return &transact.FittedDiscretizer{Labels: []string{"only"}}, nil
}
