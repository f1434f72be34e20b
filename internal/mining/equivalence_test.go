package mining

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/transact"
)

// mineReference is the oracle the level-wise engine is checked against.
// It enumerates itemsets depth-first in ascending item-ID order, counts
// each one with DB.SupportHorizontal (a transaction scan), and stops
// extending a set as soon as it is infrequent (anti-monotonicity). Under
// a non-empty Φ or FilterSameFeature it drops every set holding a
// forbidden pair anywhere — the set-level meaning of the k=2 prune. It
// uses no level join, no hash prune and no bitmaps. cfg is taken as is:
// pass the effective filters of the algorithm being checked.
//
// PrunedDeps and PrunedSameFeature are the unordered pairs of frequent
// single items each filter removes, Φ first, as Listing 1 counts them.
func mineReference(t *testing.T, db *itemset.DB, cfg Config) *Result {
	t.Helper()
	minCount, err := resolveMinSupport(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(db.Dict.Len())
	dep := map[[2]int32]bool{}
	for _, p := range cfg.Dependencies {
		a, okA := db.Dict.Lookup(p.A)
		b, okB := db.Dict.Lookup(p.B)
		if okA && okB {
			dep[[2]int32{a, b}] = true
			dep[[2]int32{b, a}] = true
		}
	}
	same := func(a, b int32) bool { return cfg.FilterSameFeature && db.Dict.SameFeatureType(a, b) }

	res := &Result{MinSupportCount: minCount, NumTransactions: db.NumTransactions()}
	var walk func(prefix itemset.Itemset, from int32)
	walk = func(prefix itemset.Itemset, from int32) {
		if cfg.MaxLen > 0 && len(prefix) >= cfg.MaxLen {
			return
		}
	next:
		for id := from; id < n; id++ {
			for _, p := range prefix {
				if dep[[2]int32{p, id}] || same(p, id) {
					continue next
				}
			}
			s := append(prefix[:len(prefix):len(prefix)], id)
			sup := db.SupportHorizontal(s)
			if sup < minCount {
				continue
			}
			res.Frequent = append(res.Frequent, FrequentItemset{Items: s, Support: sup})
			walk(s, id+1)
		}
	}
	walk(nil, 0)
	sort.SliceStable(res.Frequent, func(i, j int) bool {
		return len(res.Frequent[i].Items) < len(res.Frequent[j].Items)
	})

	var f1 []int32
	for _, f := range res.Frequent {
		if len(f.Items) == 1 {
			f1 = append(f1, f.Items[0])
		}
	}
	if cfg.MaxLen == 1 {
		return res // no pass k=2, so nothing is pruned
	}
	for i, a := range f1 {
		for _, b := range f1[i+1:] {
			switch {
			case dep[[2]int32{a, b}]:
				res.PrunedDeps++
			case same(a, b):
				res.PrunedSameFeature++
			}
		}
	}
	return res
}

// sameResult asserts got equals want element-wise: the same itemsets in
// the same order with the same supports, and the same k=2 prune tallies.
func sameResult(t *testing.T, name string, got, want *Result, d *itemset.Dictionary) {
	t.Helper()
	if got.PrunedDeps != want.PrunedDeps || got.PrunedSameFeature != want.PrunedSameFeature {
		t.Errorf("%s: prunes (deps %d, same %d), want (%d, %d)", name,
			got.PrunedDeps, got.PrunedSameFeature, want.PrunedDeps, want.PrunedSameFeature)
	}
	if len(got.Frequent) != len(want.Frequent) {
		t.Errorf("%s: %d frequent itemsets, want %d", name, len(got.Frequent), len(want.Frequent))
	}
	for i := 0; i < len(got.Frequent) && i < len(want.Frequent); i++ {
		g, w := got.Frequent[i], want.Frequent[i]
		if !g.Items.Equal(w.Items) || g.Support != w.Support {
			t.Errorf("%s: itemset %d is %s/%d, want %s/%d", name, i,
				g.Items.Format(d), g.Support, w.Items.Format(d), w.Support)
			return
		}
	}
}

// randomTable builds a small random transaction table over an item
// vocabulary including same-feature predicate pairs.
func randomTable(rng *rand.Rand, rows, items int) *dataset.Table {
	vocab := []string{
		"contains_slum", "touches_slum", "overlaps_slum",
		"contains_school", "touches_school",
		"contains_river", "crosses_river",
		"rate=high", "rate=low", "zone=a",
	}
	if items > len(vocab) {
		items = len(vocab)
	}
	txs := make([]dataset.Transaction, rows)
	for i := range txs {
		var its []string
		for j := 0; j < items; j++ {
			if rng.Float64() < 0.45 {
				its = append(its, vocab[j])
			}
		}
		txs[i] = dataset.Transaction{RefID: "r", Items: its}
	}
	return dataset.NewTable(txs)
}

// TestEnginesEquivalentOnGeneratedScenes pins the three named algorithms
// to mineReference: on seeded datagen workloads of several sizes and
// minimum supports, Apriori, Apriori-KC and Apriori-KC+ produce the
// reference's itemsets, supports, order and k=2 prune tallies, at
// sequential, GOMAXPROCS, and forced-multi-worker Parallelism alike. Run
// under -race in CI at GOMAXPROCS 1, 2, and 8, this also proves the
// counting workers share the DB's read-only bitmaps safely.
func TestEnginesEquivalentOnGeneratedScenes(t *testing.T) {
	deps := make([]Pair, 0, len(datagen.Dataset1Dependencies))
	for _, d := range datagen.Dataset1Dependencies {
		deps = append(deps, Pair{A: d.A, B: d.B})
	}
	tables := map[string]*dataset.Table{}
	for _, rows := range []int{120, 600} {
		t1, err := datagen.PaperDataset1(datagen.DefaultSeed, rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset1/rows=%d", rows)] = t1
		t2, err := datagen.PaperDataset2(datagen.DefaultSeed, rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[fmt.Sprintf("dataset2/rows=%d", rows)] = t2
	}
	// One geometric scene end to end: generated scene -> DE-9IM
	// extraction -> transactions.
	scene, err := datagen.GenerateScene(datagen.DefaultScene(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	extracted, err := transact.Extract(scene, transact.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables["scene8x8"] = extracted

	engines := []struct {
		name string
		fn   func(*itemset.DB, Config) (*Result, error)
		// effective is the filter set the named algorithm mines with.
		effective func(Config) Config
	}{
		{"apriori", Apriori, func(c Config) Config { c.Dependencies = nil; return c }},
		{"apriori-kc", AprioriKC, func(c Config) Config { return c }},
		{"apriori-kc+", AprioriKCPlus, func(c Config) Config { c.FilterSameFeature = true; return c }},
	}
	for name, table := range tables {
		for _, minsup := range []float64{0.05, 0.12, 0.3} {
			db := itemset.NewDB(table)
			cfg := Config{MinSupport: minsup, Dependencies: deps}
			want := make([]*Result, len(engines))
			for i, e := range engines {
				want[i] = mineReference(t, db, e.effective(cfg))
			}
			for _, par := range []int{1, 0, 4} {
				t.Run(fmt.Sprintf("%s/minsup=%g/par=%d", name, minsup, par), func(t *testing.T) {
					db := itemset.NewDB(table)
					pcfg := cfg
					pcfg.Parallelism = par
					for i, e := range engines {
						got, err := e.fn(db, pcfg)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, e.name, got, want[i], db.Dict)
					}
				})
			}
		}
	}
}
