package colocation_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/colocation"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestColocationMatchesBruteForceOnGeneratedScenes is the property test
// mirroring TestEnginesEquivalentOnGeneratedScenes: across generated
// planted scenes × distances × minPI × Parallelism ∈ {1, 4}, the
// R-tree + star-pruned participation-index walk must report exactly the
// oracle's prevalent patterns — same sets, same PI floats, same row
// counts, same order — and the whole Result, counters and the
// StarPruned diagnostic included, must not depend on the worker count.
// The oracle never prunes, so this also pins the star bound as sound.
// Under each worker count, the "clique" and "joinless" leaves replay the
// config as a legacy document naming that retired engine and must get
// the same Result.
// Run under -race in CI, it exercises the parallel CSR materialization
// and the sharded walk for data races.
func TestColocationMatchesBruteForceOnGeneratedScenes(t *testing.T) {
	wide := []float64{0.5, 2, 8}
	scenes := []struct {
		name  string
		cfg   datagen.ColocationSceneConfig
		dists []float64
	}{
		{"default", datagen.DefaultColocationScene(7), wide},
		{"dense", datagen.ColocationSceneConfig{
			Seed: 11, Types: []string{"p", "q", "r"}, Extent: 20,
			Clusters: 10, ClusterSpread: 0.8, Noise: 5,
		}, wide},
		{"sparse noise-only", datagen.ColocationSceneConfig{
			Seed: 3, Types: []string{"x", "y", "z", "w"}, Extent: 60,
			Clusters: 0, ClusterSpread: 0.5, Noise: 12,
		}, wide},
		{"tight overlapping plants", datagen.ColocationSceneConfig{
			Seed: 23, Types: []string{"a", "b", "c", "d"}, Extent: 40,
			Clusters: 8, ClusterSpread: 0.3,
			Planted: [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"a", "d"}},
			Noise:   4,
		}, wide},
		{"default seed 19", datagen.DefaultColocationScene(19), []float64{1, 4}},
		{"clutter", datagen.ColocationSceneConfig{
			Seed: 29, Types: []string{"a", "b", "c", "d"}, Extent: 12,
			Clusters: 8, ClusterSpread: 0.6, Noise: 40,
		}, []float64{1, 4}},
		{"planted cliques", datagen.ColocationSceneConfig{
			Seed: 31, Types: []string{"p", "q", "r"}, Extent: 50,
			Clusters: 12, ClusterSpread: 0.4,
			Planted: [][]string{{"p", "p", "q", "q", "r"}, {"q", "r"}},
			Noise:   6,
		}, []float64{1, 4}},
	}
	for _, sc := range scenes {
		ds, err := datagen.GenerateColocationScene(sc.cfg)
		if err != nil {
			t.Fatalf("%s: generate: %v", sc.name, err)
		}
		for _, dist := range sc.dists {
			for _, minPI := range []float64{0.2, 0.5} {
				cfg := colocation.Config{Distance: dist, MinPI: minPI}
				want, err := colocation.MineBruteForce(ds, cfg)
				if err != nil {
					t.Fatalf("%s: oracle: %v", sc.name, err)
				}
				var sequential *colocation.Result
				for _, par := range []int{1, 4} {
					cfg.Parallelism = par
					t.Run(fmt.Sprintf("%s/dist=%v/minpi=%v/par=%d", sc.name, dist, minPI, par), func(t *testing.T) {
						got, err := colocation.Mine(ds, cfg)
						if err != nil {
							t.Fatalf("Mine: %v", err)
						}
						if !reflect.DeepEqual(got.Prevalent, want.Prevalent) {
							t.Fatalf("walk != oracle:\n got %+v\nwant %+v", got.Prevalent, want.Prevalent)
						}
						if got.Instances != want.Instances || !reflect.DeepEqual(got.Types, want.Types) {
							t.Fatalf("world mismatch: got %d %v, want %d %v",
								got.Instances, got.Types, want.Instances, want.Types)
						}
						got.Duration = 0 // wall clock, legitimately differs
						if sequential == nil {
							sequential = got
						} else if !reflect.DeepEqual(got, sequential) {
							t.Fatalf("par=%d diverged from par=1:\n got %+v\nwant %+v", par, got, sequential)
						}
						for _, legacy := range []string{"clique", "joinless"} {
							t.Run(legacy, func(t *testing.T) {
								legacyConfigMinesSame(t, ds, cfg, legacy, got)
							})
						}
					})
				}
			}
		}
	}
}

// legacyConfigMinesSame sends cfg through the wire form an older
// client wrote, with the retired "engine" member naming one of the
// former strategies, and checks that the document decodes to cfg
// itself and mines exactly want (Duration aside).
func legacyConfigMinesSame(t *testing.T, ds *dataset.Dataset, cfg colocation.Config, engine string, want *colocation.Result) {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"engine":%q,%s`, engine, body[1:])
	parsed, err := colocation.ParseConfig([]byte(doc))
	if err != nil {
		t.Fatalf("ParseConfig(%s): %v", doc, err)
	}
	if parsed != cfg {
		t.Fatalf("ParseConfig(%s) = %+v, want %+v", doc, parsed, cfg)
	}
	got, err := colocation.Mine(ds, parsed)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	got.Duration = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine=%s config diverged:\n got %+v\nwant %+v", engine, got, want)
	}
}

// TestGeneratedSceneDeterministic: one seed, one scene.
func TestGeneratedSceneDeterministic(t *testing.T) {
	a, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenes")
	}
}

// TestPlantedPatternsPrevalent: at a distance covering the cluster
// spread and a PI below the planting rate, every planted set (and by
// anti-monotonicity each of its subsets) must surface.
func TestPlantedPatternsPrevalent(t *testing.T) {
	cfg := datagen.ColocationSceneConfig{
		Seed: 5, Types: []string{"atm", "busStop", "cafe"}, Extent: 200,
		Clusters: 10, ClusterSpread: 0.5,
		Planted: [][]string{{"atm", "busStop", "cafe"}},
		Noise:   3,
	}
	ds, err := datagen.GenerateColocationScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 of 13 instances of each type sit in planted cliques.
	res, err := colocation.Mine(ds, colocation.Config{Distance: 1.0, MinPI: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Prevalent {
		if reflect.DeepEqual(p.Types, []string{"atm", "busStop", "cafe"}) {
			found = true
			if p.PI < 0.6 {
				t.Fatalf("planted pattern PI = %v", p.PI)
			}
		}
	}
	if !found {
		t.Fatalf("planted {atm,busStop,cafe} not prevalent; got %+v", res.Prevalent)
	}
}
