package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// ExtractBenchResult is one extraction benchmark measurement, written to
// BENCH_extract.json so the perf trajectory covers spatial predicate
// extraction — the cost the paper identifies as dominant — and not just
// the mining passes.
type ExtractBenchResult struct {
	// Name identifies the workload:
	// "relate/<scenario>/<prepared|unprepared>" for per-pair rows and
	// "extract/rows=<n>/<families>/rtree/<prepared|unprepared>" for
	// whole-table rows (the R-tree is the only candidate index; the
	// segment keeps the names of the committed baseline rows).
	Name string `json:"name"`
	// N is the number of timed iterations the harness settled on.
	N int `json:"n"`
	// NsPerOp is wall time per op (one relate, or one full extraction).
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp come from the allocation profile.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
	// Rows and NsPerRow are set on extraction workloads: the reference
	// row count and the per-row cost.
	Rows     int     `json:"rows,omitempty"`
	NsPerRow float64 `json:"nsPerRow,omitempty"`
	// Items is the total item count of the extracted table — the
	// correctness anchor: prepared and unprepared rows of the same
	// workload must agree (the runner additionally deep-compares the
	// tables before timing).
	Items int `json:"items,omitempty"`
}

// benchNgon builds a regular n-gon — the polygon shape of the per-pair
// relate workloads.
func benchNgon(n int, cx, cy, r float64) geom.Polygon {
	coords := make([]geom.Point, n)
	for i := range coords {
		theta := 2 * math.Pi * float64(i) / float64(n)
		coords[i] = geom.Pt(cx+r*math.Cos(theta), cy+r*math.Sin(theta))
	}
	return geom.Polygon{Shell: geom.Ring{Coords: coords}}
}

// ExtractBench measures the spatial-join workloads: per-pair DE-9IM
// relates on polygon scenes and whole-table scene extraction across
// row counts, relation families, and the prepared/unprepared refine
// paths.
func ExtractBench() ([]ExtractBenchResult, error) {
	out := relatePairBench()
	ext, err := extractTableBench()
	if err != nil {
		return nil, err
	}
	return append(out, ext...), nil
}

// relatePairBench measures single Relate calls on the polygon-pair
// scenarios a spatial join refines: overlapping, touching, and
// line-crossing geometry.
func relatePairBench() []ExtractBenchResult {
	pairs := []struct {
		name string
		a, b geom.Geometry
	}{
		{"polygon-overlap", benchNgon(32, 0, 0, 10), benchNgon(32, 8, 0, 10)},
		{"polygon-touch", geom.Rect(0, 0, 10, 10), geom.Rect(10, 0, 20, 10)},
		{"polygon-contained", benchNgon(16, 0, 0, 10), benchNgon(16, 3, 0, 4)},
		{"line-polygon", geom.Line(geom.Pt(-15, 0), geom.Pt(15, 0)), benchNgon(32, 0, 0, 10)},
	}
	var out []ExtractBenchResult
	for _, pc := range pairs {
		a, b := pc.a, pc.b
		pa, pb := geom.Prepare(a), geom.Prepare(b)
		if de9im.RelatePrepared(pa, pb) != de9im.Relate(a, b) {
			panic(fmt.Sprintf("extract bench: prepared relate diverges on %s", pc.name))
		}
		out = append(out, benchMeasure("relate/"+pc.name+"/unprepared", func() {
			de9im.Relate(a, b)
		}))
		out = append(out, benchMeasure("relate/"+pc.name+"/prepared", func() {
			de9im.RelatePrepared(pa, pb)
		}))
	}
	return out
}

// extractTableBench measures whole-table extraction on generated scenes:
// rows × relation families × prepared/unprepared.
func extractTableBench() ([]ExtractBenchResult, error) {
	type workload struct {
		name string
		grid int
		opts transact.Options
	}
	topo := transact.DefaultOptions()
	topoDist := topo
	topoDist.Distance = true
	topoDist.Thresholds = qsr.DefaultThresholds(10)
	workloads := []workload{
		{"extract/rows=100/topo/rtree", 10, topo},
		{"extract/rows=100/topo+dist/rtree", 10, topoDist},
		{"extract/rows=400/topo/rtree", 20, topo},
	}
	var out []ExtractBenchResult
	scenes := map[int]*dataset.Dataset{}
	for _, w := range workloads {
		d := scenes[w.grid]
		if d == nil {
			var err error
			d, err = datagen.GenerateScene(datagen.DefaultScene(w.grid, w.grid, 1))
			if err != nil {
				return nil, err
			}
			scenes[w.grid] = d
		}
		unprep := w.opts
		unprep.NoPrepare = true
		// Correctness anchor: both refine paths must emit the same table.
		tp, err := transact.Extract(d, w.opts)
		if err != nil {
			return nil, err
		}
		tu, err := transact.Extract(d, unprep)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(tp, tu) {
			return nil, fmt.Errorf("extract bench: %s: prepared and unprepared tables diverge", w.name)
		}
		items := 0
		for _, row := range tp.Transactions {
			items += len(row.Items)
		}
		rows := len(tp.Transactions)
		for _, variant := range []struct {
			suffix string
			opts   transact.Options
		}{
			{"/unprepared", unprep},
			{"/prepared", w.opts},
		} {
			opts := variant.opts
			r := benchMeasure(w.name+variant.suffix, func() {
				if _, err := transact.Extract(d, opts); err != nil {
					panic(err)
				}
			})
			r.Rows = rows
			r.NsPerRow = r.NsPerOp / float64(rows)
			r.Items = items
			out = append(out, r)
		}
	}
	return out, nil
}

// benchMeasure times fn under the testing benchmark harness with
// allocation reporting.
func benchMeasure(name string, fn func()) ExtractBenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return ExtractBenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// WriteExtractBenchJSON runs ExtractBench and writes the results as an
// indented JSON array — the BENCH_extract.json emitter behind
// `cmd/experiments -bench-extract-json`.
func WriteExtractBenchJSON(w io.Writer) error {
	results, err := ExtractBench()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
