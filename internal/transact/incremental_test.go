package transact

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/qsr"
)

// stateOptionsUnderTest covers every relation family the incremental
// state must stay equivalent under.
func stateOptionsUnderTest() map[string]Options {
	return map[string]Options{
		"topological":  {Topological: true, IncludeIsA: true},
		"withDisjoint": {Topological: true, IncludeDisjoint: true},
		"distance":     {Distance: true, Thresholds: qsr.DefaultThresholds(10)},
		"farFrom":      {Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeFarFrom: true},
		"directional":  {Directional: true},
		"combined":     {Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeIsA: true},
		"unprepared":   {Topological: true, NoPrepare: true},
	}
}

// sceneForState generates a small deterministic scene.
func sceneForState(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := datagen.GenerateScene(datagen.DefaultScene(4, 3, seed))
	if err != nil {
		t.Fatalf("GenerateScene: %v", err)
	}
	return d
}

// assertTablesEqual requires positionally identical tables.
func assertTablesEqual(t *testing.T, got, want *dataset.Table, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Transactions {
		g, w := got.Transactions[i], want.Transactions[i]
		if g.RefID != w.RefID {
			t.Fatalf("%s: row %d RefID = %q, want %q", label, i, g.RefID, w.RefID)
		}
		if fmt.Sprint(g.Items) != fmt.Sprint(w.Items) {
			t.Fatalf("%s: row %d (%s) items =\n%v\nwant\n%v", label, i, g.RefID, g.Items, w.Items)
		}
	}
}

func TestStateTableMatchesExtract(t *testing.T) {
	d := sceneForState(t, 7)
	for name, opts := range stateOptionsUnderTest() {
		t.Run(name, func(t *testing.T) {
			want, err := Extract(d, opts)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			st, err := NewState(d, opts)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			assertTablesEqual(t, st.Table(), want, "state table")
		})
	}
}

// rectWKT renders an axis-aligned rectangle as polygon WKT.
func rectWKT(minX, minY, maxX, maxY float64) string {
	return fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
		minX, minY, maxX, minY, maxX, maxY, minX, maxY, minX, minY)
}

// randomSceneOps builds a valid mutation batch against d using every op
// kind across the reference and relevant layers. tag keeps insert IDs
// unique across successive batches.
func randomSceneOps(rng *rand.Rand, d *dataset.Dataset, nOps int, tag string) []dataset.Op {
	var ops []dataset.Op
	deleted := map[string]bool{}
	inserted := 0
	for len(ops) < nOps {
		// Pick a layer: mostly relevant ones, sometimes the reference.
		var layer *dataset.Layer
		if rng.Float64() < 0.2 {
			layer = d.Reference
		} else {
			layer = d.Relevant[rng.Intn(len(d.Relevant))]
		}
		if layer.Len() == 0 {
			continue
		}
		f := layer.Features[rng.Intn(layer.Len())]
		key := layer.Type + "/" + f.ID
		switch rng.Intn(4) {
		case 3: // attribute update on a reference district: a numeric
			// value shifts (or first creates) the crimeRate column's
			// fitted cuts, exercising the refit path
			rf := d.Reference.Features[rng.Intn(d.Reference.Len())]
			rkey := d.Reference.Type + "/" + rf.ID
			if deleted[rkey] {
				continue
			}
			ops = append(ops, dataset.Op{
				Action: dataset.OpUpdate, Layer: d.Reference.Type, ID: rf.ID,
				Attrs: map[string]dataset.Value{"crimeRate": rng.Float64() * 100},
			})
		case 0: // update: replace with a nudged rectangle (pad degenerate
			// point/line envelopes so the polygon stays valid)
			if deleted[key] {
				continue
			}
			env := f.Geometry.Envelope()
			w := env.MaxX - env.MinX
			if w < 0.5 {
				w = 0.5
			}
			h := env.MaxY - env.MinY
			if h < 0.5 {
				h = 0.5
			}
			dx, dy := (rng.Float64()-0.5)*4, (rng.Float64()-0.5)*4
			wkt := rectWKT(env.MinX+dx, env.MinY+dy, env.MinX+dx+w, env.MinY+dy+h)
			ops = append(ops, dataset.Op{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt})
		case 1: // insert a fresh rectangle
			x, y := rng.Float64()*40, rng.Float64()*30
			id := fmt.Sprintf("new_%s_%s_%d", tag, layer.Type, inserted)
			inserted++
			ops = append(ops, dataset.Op{Action: dataset.OpInsert, Layer: layer.Type, ID: id, WKT: rectWKT(x, y, x+2, y+2)})
		default: // delete (keep the reference layer populated)
			if deleted[key] || (layer == d.Reference && layer.Len() < 4) {
				continue
			}
			deleted[key] = true
			ops = append(ops, dataset.Op{Action: dataset.OpDelete, Layer: layer.Type, ID: f.ID})
		}
	}
	return ops
}

func TestStateApplyMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, opts := range stateOptionsUnderTest() {
		t.Run(name, func(t *testing.T) {
			d := sceneForState(t, 13)
			st, err := NewState(d, opts)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			for step := 0; step < 4; step++ {
				ops := randomSceneOps(rng, d, 1+rng.Intn(4), fmt.Sprintf("%s%d", name, step))
				nd, cs, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatalf("step %d: ApplyOps: %v", step, err)
				}
				prevTable := st.Table()
				delta, err := st.Apply(context.Background(), nd, cs)
				if err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				want, err := Extract(nd, opts)
				if err != nil {
					t.Fatalf("step %d: Extract: %v", step, err)
				}
				got := st.Table()
				assertTablesEqual(t, got, want, fmt.Sprintf("step %d", step))
				verifyDelta(t, delta, prevTable, got, step)
				d = nd
			}
		})
	}
}

// verifyDelta cross-checks a TableDelta against the actual before/after
// tables: the mapping is consistent, every changed row is reported with
// its exact old/new items, and every unreported surviving row is
// unchanged.
func verifyDelta(t *testing.T, delta *TableDelta, before, after *dataset.Table, step int) {
	t.Helper()
	if delta.RowsTotal != after.Len() {
		t.Fatalf("step %d: RowsTotal = %d, want %d", step, delta.RowsTotal, after.Len())
	}
	if delta.RowsDirty+delta.RowsReused != delta.RowsTotal {
		t.Fatalf("step %d: dirty %d + reused %d != total %d", step, delta.RowsDirty, delta.RowsReused, delta.RowsTotal)
	}
	changed := map[int]RowChange{}
	for _, c := range delta.Changed {
		changed[c.Row] = c
	}
	for j, old := range delta.NewFromOld {
		a := after.Transactions[j]
		c, isChanged := changed[j]
		if old < 0 {
			if !isChanged || c.Old != nil {
				t.Fatalf("step %d: inserted row %d must be reported with nil Old", step, j)
			}
			continue
		}
		b := before.Transactions[old]
		if a.RefID != b.RefID {
			t.Fatalf("step %d: NewFromOld[%d]=%d maps %q to %q", step, j, old, b.RefID, a.RefID)
		}
		if isChanged {
			if fmt.Sprint(c.Old) != fmt.Sprint(b.Items) || fmt.Sprint(c.New) != fmt.Sprint(a.Items) {
				t.Fatalf("step %d: changed row %d items mismatch", step, j)
			}
			if fmt.Sprint(b.Items) == fmt.Sprint(a.Items) {
				t.Fatalf("step %d: row %d reported changed but identical", step, j)
			}
		} else if fmt.Sprint(a.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("step %d: row %d (%s) changed but unreported:\nold %v\nnew %v",
				step, j, a.RefID, b.Items, a.Items)
		}
	}
	// Deleted rows: exactly the old indices missing from NewFromOld.
	missing := map[int]bool{}
	for old := 0; old < before.Len(); old++ {
		missing[old] = true
	}
	for _, old := range delta.NewFromOld {
		if old >= 0 {
			delete(missing, old)
		}
	}
	if len(missing) != len(delta.Deleted) {
		t.Fatalf("step %d: %d deleted rows reported, want %d", step, len(delta.Deleted), len(missing))
	}
	for _, del := range delta.Deleted {
		if !missing[del.Row] || del.New != nil {
			t.Fatalf("step %d: bad deletion record %+v", step, del)
		}
		if fmt.Sprint(del.Old) != fmt.Sprint(before.Transactions[del.Row].Items) {
			t.Fatalf("step %d: deleted row %d items mismatch", step, del.Row)
		}
	}
}

// TestStateApplyAttributeShiftMatchesFromScratch pins the review repro:
// an attribute edit that moves the fitted discretizer cuts, combined
// with a geometry nudge on another reference feature. The nudged row
// re-extracts fully and must render its (unchanged) numeric attribute
// under the refit cuts — with stale cuts it keeps its old bin label and
// diverges from a cold extraction.
func TestStateApplyAttributeShiftMatchesFromScratch(t *testing.T) {
	districts := dataset.NewLayer("district")
	for i, pop := range []float64{1, 2, 3, 4} {
		x := float64(i) * 10
		districts.Add(dataset.Feature{
			ID:       fmt.Sprintf("c%d", i),
			Geometry: geom.Rect(x, 0, x+10, 10),
			Attrs:    map[string]dataset.Value{"pop": pop},
		})
	}
	schools := dataset.NewLayer("school")
	schools.AddGeometry(geom.Pt(5, 5))
	d := &dataset.Dataset{
		Reference:       districts,
		Relevant:        []*dataset.Layer{schools},
		NonSpatialAttrs: []string{"pop"},
	}
	opts := Options{Topological: true}
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	// pop 1 -> 100 moves the tercile cuts from [2,3] to [3,4]: c3's
	// pop=4 drops from the high bin to the medium one.
	nd, cs, err := d.ApplyOps([]dataset.Op{
		{Action: dataset.OpUpdate, Layer: "district", ID: "c0", Attrs: map[string]dataset.Value{"pop": 100.0}},
		{Action: dataset.OpUpdate, Layer: "district", ID: "c3", WKT: rectWKT(30.5, 0, 40.5, 10)},
	})
	if err != nil {
		t.Fatalf("ApplyOps: %v", err)
	}
	if _, err := st.Apply(context.Background(), nd, cs); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want, err := Extract(nd, opts)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	assertTablesEqual(t, st.Table(), want, "attribute shift")
}

func TestStateApplySingleEditIsSparse(t *testing.T) {
	d := sceneForState(t, 29)
	opts := Options{Topological: true, IncludeIsA: true}
	st, err := NewState(d, opts)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	// Move one slum within its district: only nearby rows may re-extract.
	layer := d.Relevant[0]
	f := layer.Features[0]
	env := f.Geometry.Envelope()
	wkt := fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
		env.MinX+1, env.MinY, env.MaxX+1, env.MinY,
		env.MaxX+1, env.MaxY, env.MinX+1, env.MaxY, env.MinX+1, env.MinY)
	nd, cs, err := d.ApplyOps([]dataset.Op{{Action: dataset.OpUpdate, Layer: layer.Type, ID: f.ID, WKT: wkt}})
	if err != nil {
		t.Fatalf("ApplyOps: %v", err)
	}
	delta, err := st.Apply(context.Background(), nd, cs)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if delta.RowsDirty >= delta.RowsTotal {
		t.Errorf("single topological edit dirtied every row (%d/%d)", delta.RowsDirty, delta.RowsTotal)
	}
	if delta.RowsReused == 0 {
		t.Errorf("expected reused rows, got none")
	}
	if delta.PreparedReused == 0 {
		t.Errorf("expected reused prepared geometries, got none")
	}
	want, err := Extract(nd, opts)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	assertTablesEqual(t, st.Table(), want, "sparse apply")
}

func TestStateApplyParallelism(t *testing.T) {
	d := sceneForState(t, 3)
	for _, par := range []int{1, 4} {
		opts := Options{Topological: true, Distance: true, Thresholds: qsr.DefaultThresholds(10), Parallelism: par}
		st, err := NewState(d, opts)
		if err != nil {
			t.Fatalf("NewState(par=%d): %v", par, err)
		}
		layer := d.Relevant[1]
		nd, cs, err := d.ApplyOps([]dataset.Op{
			{Action: dataset.OpInsert, Layer: layer.Type, ID: "pp", WKT: "POINT (17 12)"},
		})
		if err != nil {
			t.Fatalf("ApplyOps: %v", err)
		}
		if _, err := st.Apply(context.Background(), nd, cs); err != nil {
			t.Fatalf("Apply(par=%d): %v", par, err)
		}
		want, err := Extract(nd, opts)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		assertTablesEqual(t, st.Table(), want, fmt.Sprintf("par=%d", par))
	}
}
