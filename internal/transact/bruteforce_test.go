package transact

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/qsr"
)

// extractBruteForce is the extraction oracle: it pairs every reference
// feature with every feature of every relevant layer and renders the
// raw qsr relations — no index, no prepared geometry, no envelope
// short-cut. Only the non-spatial items share code with the engine.
func extractBruteForce(t *testing.T, d *dataset.Dataset, opts Options) *dataset.Table {
	t.Helper()
	disc := opts.Discretizer
	if disc == nil {
		disc = DefaultDiscretizer()
	}
	cuts, err := fitNumericAttrs(d, disc)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rows := make([]dataset.Transaction, d.Reference.Len())
	for r := range d.Reference.Features {
		ref := &d.Reference.Features[r]
		var items []string
		if opts.IncludeIsA {
			items = append(items, "is_a_"+d.Reference.Type)
		}
		items = appendAttrItems(items, ref, d.NonSpatialAttrs, cuts)
		emit := func(rel qsr.Relation, target string) {
			items = append(items, qsr.Predicate{Relation: rel, FeatureType: target}.String())
		}
		for _, layer := range d.Relevant {
			for i := range layer.Features {
				feat := &layer.Features[i]
				target := layer.Type
				if opts.Granularity == InstanceLevel {
					target = feat.ID
				}
				if opts.Topological {
					if rel, ok := qsr.Topological(ref.Geometry, feat.Geometry); ok && (rel != qsr.Disjoint || opts.IncludeDisjoint) {
						emit(rel, target)
					}
				}
				if opts.Distance {
					if rel := qsr.DistanceRelation(ref.Geometry, feat.Geometry, opts.Thresholds); rel != qsr.FarFrom || opts.IncludeFarFrom {
						emit(rel, target)
					}
				}
				if opts.Directional {
					if rel, ok := qsr.Directional(ref.Geometry, feat.Geometry); ok {
						emit(rel, target)
					}
				}
			}
		}
		rows[r] = dataset.Transaction{RefID: ref.ID, Items: items}
	}
	return dataset.NewTable(rows)
}

// bruteForceFamilies is the family matrix of
// TestExtractPreparedMatchesUnprepared plus distance without farFrom,
// so every candidate-gather radius is checked: the Eps-buffered
// envelope (topological), CloseMax+Eps (near distance), and
// take-everything (disjoint, farFrom, directional).
func bruteForceFamilies() map[string]Options {
	return map[string]Options{
		"topological":  {Topological: true},
		"withDisjoint": {Topological: true, IncludeDisjoint: true},
		"distance":     {Distance: true, Thresholds: qsr.DefaultThresholds(10), IncludeFarFrom: true},
		"distanceNear": {Distance: true, Thresholds: qsr.DefaultThresholds(10)},
		"directional":  {Directional: true},
		"all": {
			Topological: true,
			Distance:    true, Thresholds: qsr.DefaultThresholds(10),
			Directional: true,
			IncludeIsA:  true,
		},
	}
}

// TestExtractMatchesBruteForce: the R-tree candidate gather loses no
// predicate. For every relation family, both granularities, and
// sequential as well as parallel extraction, ExtractContext must equal
// the all-pairs oracle row by row.
func TestExtractMatchesBruteForce(t *testing.T) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range bruteForceFamilies() {
		for _, gran := range []Granularity{TypeLevel, InstanceLevel} {
			opts := base
			opts.Granularity = gran
			want := extractBruteForce(t, d, opts)
			for _, par := range []int{1, 4} {
				opts.Parallelism = par
				t.Run(fmt.Sprintf("%s/gran=%d/par=%d", name, gran, par), func(t *testing.T) {
					got, err := ExtractContext(context.Background(), d, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertTablesEqual(t, got, want, "extract vs brute force")
				})
			}
		}
	}
}

// TestStateApplyMatchesBruteForce advances one mutated scene through
// State.Apply and checks the patched table against the all-pairs
// oracle on the successor dataset, so the dirty-region gather is held
// to the same standard as a full extraction.
func TestStateApplyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for name, opts := range bruteForceFamilies() {
		t.Run(name, func(t *testing.T) {
			d := sceneForState(t, 17)
			st, err := NewState(d, opts)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			for step := 0; step < 3; step++ {
				ops := randomSceneOps(rng, d, 1+rng.Intn(4), fmt.Sprintf("bf%s%d", name, step))
				nd, cs, err := d.ApplyOps(ops)
				if err != nil {
					t.Fatalf("step %d: ApplyOps: %v", step, err)
				}
				if _, err := st.Apply(context.Background(), nd, cs); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				assertTablesEqual(t, st.Table(), extractBruteForce(t, nd, opts), fmt.Sprintf("step %d", step))
				d = nd
			}
		})
	}
}
