package mining

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// paperDB returns the printed Table 1 database.
func paperDB() *itemset.DB {
	return itemset.NewDB(dataset.PortoAlegreTable())
}

// table2DB returns the Table 2-consistent reconstruction (see
// dataset.Table2Reconstruction for why the printed Table 1 cannot
// reproduce Table 2).
func table2DB() *itemset.DB {
	return itemset.NewDB(dataset.Table2Reconstruction())
}

// cfg50 is the paper's Section 2 configuration: minimum support 50%.
func cfg50() Config { return Config{MinSupport: 0.5} }

// TestTable2Counts reproduces the paper's Table 2 on the reconstruction:
// minimum support 50% yields 60 frequent itemsets of size >= 2 with the
// largest itemset having 6 elements, 30 of them containing a same-feature
// pair (the paper prints 31; see dataset.Table2Reconstruction).
func TestTable2Counts(t *testing.T) {
	db := table2DB()
	res, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 60 {
		t.Errorf("frequent itemsets (size >= 2) = %d, want 60 (paper Table 2)", got)
	}
	same := 0
	for _, f := range res.Frequent {
		if len(f.Items) >= 2 && f.Items.HasSameFeaturePair(db.Dict) {
			same++
		}
	}
	if same != 30 {
		t.Errorf("same-feature itemsets = %d, want 30 (paper prints 31)", same)
	}
	if got := res.MaxLen(); got != 6 {
		t.Errorf("largest frequent itemset = %d, want 6", got)
	}
	// Size histogram of Table 2: 17 + 21 + 15 + 6 + 1 = 60.
	bySize := res.CountBySize()
	for size, want := range map[int]int{2: 17, 3: 21, 4: 15, 5: 6, 6: 1} {
		if bySize[size] != want {
			t.Errorf("size-%d itemsets = %d, want %d", size, bySize[size], want)
		}
	}
}

// TestPrintedTable1Counts records what the printed Table 1 actually
// yields at 50% support — the inconsistency with Table 2 documented in
// EXPERIMENTS.md.
func TestPrintedTable1Counts(t *testing.T) {
	db := paperDB()
	res, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 47 {
		t.Errorf("printed Table 1 frequent (size >= 2) = %d, want 47 (measured)", got)
	}
	if got := res.MaxLen(); got != 5 {
		t.Errorf("printed Table 1 largest itemset = %d, want 5 (measured)", got)
	}
}

// TestTable2KCPlusCounts verifies the KC+ pass on the reconstruction: all
// 30 same-feature itemsets disappear, 30 frequent sets of size >= 2
// remain, via exactly 4 pruned pairs.
func TestTable2KCPlusCounts(t *testing.T) {
	db := table2DB()
	res, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(2); got != 30 {
		t.Errorf("KC+ frequent (size >= 2) = %d, want 60 - 30 = 30", got)
	}
	for _, f := range res.Frequent {
		if f.Items.HasSameFeaturePair(db.Dict) {
			t.Errorf("KC+ leaked same-feature itemset %s", f.Items.Format(db.Dict))
		}
	}
	// The k=2 pruning removed pairs, not larger sets: slum has 3 frequent
	// relations (contains, touches, overlaps — covers has support 2 of 6)
	// and school 2, so C(3,2) + C(2,2) = 4 pairs.
	if res.PrunedSameFeature != 4 {
		t.Errorf("pruned same-feature pairs = %d, want 4", res.PrunedSameFeature)
	}
}

// TestPostFilterEquivalence asserts the paper's Section 3 claim: pruning
// the pairs at k=2 loses exactly the same-feature itemsets and nothing
// else — Apriori followed by an aposteriori filter equals Apriori-KC+.
func TestPostFilterEquivalence(t *testing.T) {
	db := table2DB()
	full, err := Apriori(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	plus, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	post := FilterSameFeaturePost(full.Frequent, db.Dict)
	if len(post) != len(plus.Frequent) {
		t.Fatalf("post filter = %d sets, KC+ = %d", len(post), len(plus.Frequent))
	}
	plusByKey := map[string]int{}
	for _, f := range plus.Frequent {
		plusByKey[f.Items.Key()] = f.Support
	}
	for _, f := range post {
		sup, ok := plusByKey[f.Items.Key()]
		if !ok {
			t.Errorf("post-filtered set %s missing from KC+", f.Items.Format(db.Dict))
			continue
		}
		if sup != f.Support {
			t.Errorf("support mismatch for %s: %d vs %d", f.Items.Format(db.Dict), f.Support, sup)
		}
	}
}

// TestAprioriKCWithDependencies checks the Φ filter: declaring
// {contains_slum, contains_school} a known dependency removes it and all
// its supersets, and nothing else.
func TestAprioriKCWithDependencies(t *testing.T) {
	db := table2DB()
	deps := []Pair{{A: "contains_slum", B: "contains_school"}}
	cfg := cfg50()
	cfg.Dependencies = deps
	res, err := AprioriKC(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedDeps != 1 {
		t.Errorf("pruned dependencies = %d, want 1", res.PrunedDeps)
	}
	if res.PrunedSameFeature != 0 {
		t.Errorf("KC must not prune same-feature pairs, got %d", res.PrunedSameFeature)
	}
	a, _ := db.Dict.Lookup("contains_slum")
	b, _ := db.Dict.Lookup("contains_school")
	for _, f := range res.Frequent {
		if f.Items.Contains(a) && f.Items.Contains(b) {
			t.Errorf("dependency pair survived in %s", f.Items.Format(db.Dict))
		}
	}
	// Equivalence with the aposteriori dependency filter.
	full, _ := Apriori(db, cfg50())
	post := FilterDependenciesPost(full.Frequent, db.Dict, deps)
	if len(post) != len(res.Frequent) {
		t.Errorf("KC = %d sets, post filter = %d", len(res.Frequent), len(post))
	}
	// Unknown dependency items are ignored gracefully.
	cfg.Dependencies = []Pair{{A: "nope", B: "nada"}}
	res2, err := AprioriKC(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PrunedDeps != 0 || res2.NumFrequent(2) != 60 {
		t.Error("unknown dependencies must be no-ops")
	}
}

// TestAntiMonotone is the paper's correctness argument: every subset of a
// frequent itemset is frequent, with support at least as large.
func TestAntiMonotone(t *testing.T) {
	res, err := Apriori(paperDB(), Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frequent {
		for i := range f.Items {
			if len(f.Items) < 2 {
				continue
			}
			sub := f.Items.Without(i)
			subSup, ok := res.Support(sub)
			if !ok {
				t.Fatalf("subset %v of frequent set not frequent", sub)
			}
			if subSup < f.Support {
				t.Fatalf("subset support %d < superset support %d", subSup, f.Support)
			}
		}
	}
}

// TestNoInformationLoss verifies Section 3's argument: for a frequent set
// {A, B, C} where {A, B} is a same-feature pair, the cross-feature pairs
// {A, C} and {B, C} survive KC+.
func TestNoInformationLoss(t *testing.T) {
	db := table2DB()
	res, err := AprioriKCPlus(db, cfg50())
	if err != nil {
		t.Fatal(err)
	}
	mustHave := [][]string{
		{"contains_slum", "murderRate=high"},
		{"touches_slum", "touches_school"},
		{"contains_slum", "contains_school"},
		{"overlaps_slum", "theftRate=low"},
	}
	for _, names := range mustHave {
		s := lookupSet(t, db.Dict, names)
		if _, ok := res.Support(s); !ok {
			t.Errorf("cross-feature set %v lost by KC+", names)
		}
	}
}

func lookupSet(t *testing.T, d *itemset.Dictionary, names []string) itemset.Itemset {
	t.Helper()
	ids := make([]int32, len(names))
	for i, n := range names {
		id, ok := d.Lookup(n)
		if !ok {
			t.Fatalf("item %q not in dictionary", n)
		}
		ids[i] = id
	}
	return itemset.NewItemset(ids...)
}

func TestMinSupportResolution(t *testing.T) {
	db := paperDB() // 6 transactions
	cases := []struct {
		minsup float64
		want   int
	}{
		{0.5, 3},
		{0.51, 4},
		{0.05, 1},
		{1.0, 6},
	}
	for _, tc := range cases {
		got, err := resolveMinSupport(db, Config{MinSupport: tc.minsup})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("resolve(%v) = %d, want %d", tc.minsup, got, tc.want)
		}
	}
	// Absolute count overrides.
	if got, _ := resolveMinSupport(db, Config{MinSupport: 0.5, MinSupportCount: 2}); got != 2 {
		t.Errorf("absolute override = %d", got)
	}
}

func TestMineErrors(t *testing.T) {
	db := paperDB()
	if _, err := Mine(db, Config{}); err == nil {
		t.Error("zero minsup should fail")
	}
	if _, err := Mine(db, Config{MinSupport: 1.5}); err == nil {
		t.Error("minsup > 1 should fail")
	}
	if _, err := Mine(db, Config{MinSupport: math.NaN()}); err == nil {
		t.Error("NaN minsup should fail")
	}
	empty := itemset.NewDB(dataset.NewTable(nil))
	if _, err := Mine(empty, Config{MinSupport: 0.5}); err == nil {
		t.Error("empty database should fail")
	}
}

func TestMaxLenBound(t *testing.T) {
	res, err := Apriori(paperDB(), Config{MinSupport: 0.5, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen() != 2 {
		t.Errorf("MaxLen bound violated: %d", res.MaxLen())
	}
	// A bounded KC+ run is the reference's bounded enumeration, prune
	// tallies included (MaxLen 1 runs no k=2 pass, so prunes nothing).
	db := table2DB()
	for _, maxLen := range []int{1, 2, 3} {
		cfg := Config{MinSupport: 0.34, MaxLen: maxLen, FilterSameFeature: true}
		got, err := Mine(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxLen() > maxLen {
			t.Errorf("MaxLen %d: mined a size-%d itemset", maxLen, got.MaxLen())
		}
		sameResult(t, fmt.Sprintf("maxlen=%d", maxLen), got, mineReference(t, db, cfg), db.Dict)
	}
	// Unbounded run on the Table 2 reconstruction goes to 6.
	res, _ = Apriori(table2DB(), cfg50())
	if res.MaxLen() != 6 {
		t.Errorf("unbounded MaxLen = %d", res.MaxLen())
	}
}

func TestPassStats(t *testing.T) {
	res, err := AprioriKCPlus(paperDB(), cfg50())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) < 2 {
		t.Fatalf("stats = %d passes", len(res.Stats))
	}
	if res.Stats[0].K != 1 || res.Stats[1].K != 2 {
		t.Error("pass numbering wrong")
	}
	if res.Stats[1].PrunedSameFeature != res.PrunedSameFeature {
		t.Error("k=2 pruning stats not mirrored to result")
	}
	// Candidate counts weakly decrease against frequents at each level.
	for _, s := range res.Stats {
		if s.Frequent > s.Candidates && s.K > 1 {
			t.Errorf("pass %d: more frequent (%d) than candidates (%d)", s.K, s.Frequent, s.Candidates)
		}
	}
}

func TestSupportValuesAgainstHandCount(t *testing.T) {
	// Hand-verified supports from Table 1.
	db := paperDB()
	res, err := Apriori(db, Config{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names []string
		want  int
	}{
		{[]string{"contains_slum"}, 6},
		{[]string{"covers_slum"}, 2},
		{[]string{"murderRate=high", "theftRate=high"}, 2},
		{[]string{"contains_slum", "overlaps_slum", "contains_school", "touches_school"}, 5},
		{[]string{"murderRate=high", "theftRate=low", "contains_slum", "overlaps_slum",
			"contains_school", "touches_school"}, 2},
	}
	for _, tc := range cases {
		s := lookupSet(t, db.Dict, tc.names)
		got, ok := res.Support(s)
		if !ok {
			t.Errorf("%v not frequent at 10%%", tc.names)
			continue
		}
		if got != tc.want {
			t.Errorf("support(%v) = %d, want %d", tc.names, got, tc.want)
		}
	}
}

func TestParallelCountingDeterministic(t *testing.T) {
	table, err := dataset.PortoAlegreTable(), error(nil)
	if err != nil {
		t.Fatal(err)
	}
	var baseline *Result
	for _, workers := range []int{1, 0, 3, 16} {
		db := itemset.NewDB(table)
		res, err := Apriori(db, Config{MinSupport: 0.2, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if len(res.Frequent) != len(baseline.Frequent) {
			t.Fatalf("workers=%d: %d itemsets, want %d", workers, len(res.Frequent), len(baseline.Frequent))
		}
		for i := range baseline.Frequent {
			if !res.Frequent[i].Items.Equal(baseline.Frequent[i].Items) ||
				res.Frequent[i].Support != baseline.Frequent[i].Support {
				t.Fatalf("workers=%d: itemset %d differs", workers, i)
			}
		}
	}
}

// TestMinSupportMonotonicity: raising the threshold can only shrink the
// frequent set, and every surviving itemset keeps its support.
func TestMinSupportMonotonicity(t *testing.T) {
	db := itemset.NewDB(dataset.Table2Reconstruction())
	var prev *Result
	for _, count := range []int{1, 2, 3, 4, 5, 6} {
		res, err := Apriori(db, Config{MinSupportCount: count})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(res.Frequent) > len(prev.Frequent) {
				t.Fatalf("count=%d: frequent set grew: %d > %d",
					count, len(res.Frequent), len(prev.Frequent))
			}
			for _, f := range res.Frequent {
				sup, ok := prev.Support(f.Items)
				if !ok || sup != f.Support {
					t.Fatalf("count=%d: itemset %v changed support", count, f.Items)
				}
			}
		}
		prev = res
	}
}

// TestFullSupport: at 100% support only the items every row holds
// survive, each with support N.
func TestFullSupport(t *testing.T) {
	db := paperDB()
	res, err := Mine(db, Config{MinSupport: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) == 0 {
		t.Fatal("contains_slum is in every row, yet nothing is frequent")
	}
	for _, f := range res.Frequent {
		if f.Support != 6 {
			t.Errorf("itemset %s has support %d at minsup 100%%", f.Items.Format(db.Dict), f.Support)
		}
	}
}

// TestSupportLookup: Result.Support answers every mined itemset with its
// support and rejects a set that is not frequent.
func TestSupportLookup(t *testing.T) {
	db := table2DB()
	res, err := AprioriKCPlus(db, Config{MinSupport: 0.34})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frequent {
		if sup, ok := res.Support(f.Items); !ok || sup != f.Support {
			t.Errorf("Support(%s) = %d,%v want %d", f.Items.Format(db.Dict), sup, ok, f.Support)
		}
	}
	pair := lookupSet(t, db.Dict, []string{"contains_slum", "touches_slum"})
	if _, ok := res.Support(pair); ok {
		t.Error("KC+ result reports a same-feature pair as frequent")
	}
}

// bruteForce tests every subset of the item vocabulary, returning the
// support of each one that reaches minCount and that keep admits.
func bruteForce(db *itemset.DB, minCount int, keep func(itemset.Itemset) bool) map[string]int {
	n := db.Dict.Len()
	truth := map[string]int{}
	for mask := 1; mask < 1<<uint(n); mask++ {
		var s itemset.Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s = append(s, int32(i))
			}
		}
		if !keep(s) {
			continue
		}
		if sup := db.SupportHorizontal(s); sup >= minCount {
			truth[s.Key()] = sup
		}
	}
	return truth
}

// matchTruth asserts res holds exactly the itemsets and supports of truth.
func matchTruth(t *testing.T, name string, res *Result, truth map[string]int, d *itemset.Dictionary) {
	t.Helper()
	if len(res.Frequent) != len(truth) {
		t.Errorf("%s: %d itemsets, truth %d", name, len(res.Frequent), len(truth))
	}
	for _, f := range res.Frequent {
		sup, ok := truth[f.Items.Key()]
		if !ok {
			t.Errorf("%s: spurious %s", name, f.Items.Format(d))
			continue
		}
		if sup != f.Support {
			t.Errorf("%s: support %d, truth %d for %s", name, f.Support, sup, f.Items.Format(d))
		}
	}
}

// TestMinersAgainstBruteForce is the ground-truth oracle: on small random
// tables, Apriori and mineReference must produce exactly the itemsets
// found by exhaustively testing every subset of the item vocabulary.
func TestMinersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		table := randomTable(rng, 12, 8)
		db := itemset.NewDB(table)
		cfg := Config{MinSupport: 0.25}
		minCount, err := resolveMinSupport(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth := bruteForce(db, minCount, func(itemset.Itemset) bool { return true })
		res, err := Apriori(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		matchTruth(t, fmt.Sprintf("trial %d apriori", trial), res, truth, db.Dict)
		matchTruth(t, fmt.Sprintf("trial %d reference", trial), mineReference(t, db, cfg), truth, db.Dict)
	}
}

// TestKCPlusBruteForceEquivalence: KC+ must equal the brute-force
// frequent sets minus those containing a same-feature pair, set for set
// and support for support.
func TestKCPlusBruteForceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		table := randomTable(rng, 15, 9)
		db := itemset.NewDB(table)
		cfg := Config{MinSupport: 0.2}
		minCount, err := resolveMinSupport(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth := bruteForce(db, minCount, func(s itemset.Itemset) bool { return !s.HasSameFeaturePair(db.Dict) })
		res, err := AprioriKCPlus(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		matchTruth(t, fmt.Sprintf("trial %d apriori-kc+", trial), res, truth, db.Dict)
		cfg.FilterSameFeature = true
		matchTruth(t, fmt.Sprintf("trial %d reference", trial), mineReference(t, db, cfg), truth, db.Dict)
	}
}

// TestKCBruteForceEquivalence: Apriori-KC with random Φ dependencies
// must equal the brute-force frequent sets minus those holding a Φ pair,
// set for set and support for support, and so must the reference.
func TestKCBruteForceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pruned := 0
	for trial := 0; trial < 10; trial++ {
		db := itemset.NewDB(randomTable(rng, 15, 9))
		n := db.Dict.Len()
		if n < 4 {
			continue
		}
		bad := map[[2]int32]bool{}
		var deps []Pair
		for len(deps) < 3 {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b || bad[[2]int32{a, b}] {
				continue
			}
			bad[[2]int32{a, b}], bad[[2]int32{b, a}] = true, true
			deps = append(deps, Pair{A: db.Dict.Name(a), B: db.Dict.Name(b)})
		}
		cfg := Config{MinSupport: 0.2, Dependencies: deps}
		minCount, err := resolveMinSupport(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth := bruteForce(db, minCount, func(s itemset.Itemset) bool {
			for i, a := range s {
				for _, b := range s[i+1:] {
					if bad[[2]int32{a, b}] {
						return false
					}
				}
			}
			return true
		})
		res, err := AprioriKC(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		matchTruth(t, fmt.Sprintf("trial %d apriori-kc", trial), res, truth, db.Dict)
		matchTruth(t, fmt.Sprintf("trial %d reference", trial), mineReference(t, db, cfg), truth, db.Dict)
		pruned += res.PrunedDeps
	}
	if pruned == 0 {
		t.Error("no trial pruned a Φ pair; the dependencies never engaged")
	}
}

// TestResultStatsConsistent: a result accounts for itself. It records
// the threshold and row count, pass 1 considers the whole vocabulary,
// passes run consecutively from k = 1 until one finds nothing, each
// pass's Frequent is the number of itemsets of that size, and the pass
// durations fit inside the run's.
func TestResultStatsConsistent(t *testing.T) {
	db := table2DB()
	cfg := Config{MinSupport: 0.34}
	res, err := AprioriKCPlus(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minCount, err := resolveMinSupport(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupportCount != minCount || res.NumTransactions != db.NumTransactions() {
		t.Errorf("minCount %d, rows %d; want %d, %d", res.MinSupportCount, res.NumTransactions, minCount, db.NumTransactions())
	}
	if len(res.Stats) != res.MaxLen()+1 {
		t.Fatalf("%d passes for a largest itemset of %d", len(res.Stats), res.MaxLen())
	}
	if res.Stats[0].Candidates != db.Dict.Len() {
		t.Errorf("pass 1 candidates = %d, want the vocabulary size %d", res.Stats[0].Candidates, db.Dict.Len())
	}
	if last := res.Stats[len(res.Stats)-1]; last.Frequent != 0 {
		t.Errorf("last pass found %d itemsets; mining stopped early", last.Frequent)
	}
	bySize := res.CountBySize()
	total, passTime := 0, time.Duration(0)
	for i, s := range res.Stats {
		if s.K != i+1 {
			t.Errorf("stat %d numbered k=%d", i, s.K)
		}
		if s.Frequent != bySize[s.K] {
			t.Errorf("pass %d: stat says %d frequent, result holds %d", s.K, s.Frequent, bySize[s.K])
		}
		if s.Duration < 0 {
			t.Errorf("pass %d: negative duration %v", s.K, s.Duration)
		}
		total += s.Frequent
		passTime += s.Duration
	}
	if total != len(res.Frequent) {
		t.Errorf("passes found %d itemsets, result holds %d", total, len(res.Frequent))
	}
	if passTime > res.Duration {
		t.Errorf("passes took %v, longer than the whole run's %v", passTime, res.Duration)
	}
}
