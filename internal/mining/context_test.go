package mining

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// ctxTable builds a table wide enough for several passes.
func ctxTable() *dataset.Table {
	var rows []dataset.Transaction
	for r := 0; r < 40; r++ {
		var items []string
		for i := 0; i < 12; i++ {
			if (r+i)%3 != 0 {
				items = append(items, fmt.Sprintf("item%02d", i))
			}
		}
		rows = append(rows, dataset.Transaction{RefID: fmt.Sprintf("R%d", r), Items: items})
	}
	return dataset.NewTable(rows)
}

func TestMineContextPreCancelled(t *testing.T) {
	db := itemset.NewDB(ctxTable())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, db, Config{MinSupport: 0.2}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// passCanceller cancels at the first pass event, so the k=2 boundary
// check fires deterministically.
type passCanceller struct{ cancel context.CancelFunc }

func (s *passCanceller) Emit(e obs.Event) {
	if e.Kind == obs.KindPass {
		s.cancel()
	}
}

func TestMineContextCancelBetweenPasses(t *testing.T) {
	db := itemset.NewDB(ctxTable())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.New(&passCanceller{cancel: cancel})
	res, err := MineContext(obs.WithTrace(ctx, tr), db, Config{MinSupport: 0.2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled mine must not return a partial result")
	}
}

// TestMineParallelismDeterministic asserts identical frequent itemsets
// at Parallelism 1 and GOMAXPROCS — run under -race in CI, this is also
// the data-race canary for the counting worker pool.
func TestMineParallelismDeterministic(t *testing.T) {
	table := ctxTable()
	seq, err := Mine(itemset.NewDB(table), Config{MinSupport: 0.1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(itemset.NewDB(table), Config{MinSupport: 0.1, Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frequent) != len(par.Frequent) {
		t.Fatalf("sequential %d vs parallel %d itemsets", len(seq.Frequent), len(par.Frequent))
	}
	for i := range seq.Frequent {
		a, b := seq.Frequent[i], par.Frequent[i]
		if !a.Items.Equal(b.Items) || a.Support != b.Support {
			t.Fatalf("itemset %d differs: %v/%d vs %v/%d", i, a.Items, a.Support, b.Items, b.Support)
		}
	}
}

func TestMineContextEmitsPassEvents(t *testing.T) {
	c := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.New(c))
	res, err := MineContext(ctx, itemset.NewDB(ctxTable()), Config{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	passes := c.Passes()
	if len(passes) != len(res.Stats) {
		t.Fatalf("pass events = %d, want %d", len(passes), len(res.Stats))
	}
	for i, p := range passes {
		s := res.Stats[i]
		if p.K != s.K || p.Candidates != s.Candidates || p.Frequent != s.Frequent {
			t.Errorf("pass %d event %+v != stat %+v", i, p, s)
		}
	}
}

// cancelAfterCtx is a context whose Err flips to context.Canceled after
// a fixed number of polls — a deterministic mid-run cancellation without
// timing races. Value/Deadline/Done delegate to the embedded context.
type cancelAfterCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	fired bool
}

func (c *cancelAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired {
		return context.Canceled
	}
	c.left--
	if c.left <= 0 {
		c.fired = true
		return context.Canceled
	}
	return nil
}

// TestMineParallelCancellation cancels the context in the middle of the
// counting pool's work and asserts the run returns ctx.Err() with no
// partial result and no leaked worker.
func TestMineParallelCancellation(t *testing.T) {
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, 600)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.NewDB(table)
	db.BuildTidsets() // keep the baseline goroutine count stable
	before := runtime.NumGoroutine()
	for _, pollsBeforeCancel := range []int{5, 20, 40} {
		ctx := &cancelAfterCtx{Context: context.Background(), left: pollsBeforeCancel}
		res, err := MineContext(ctx, db, Config{MinSupport: 0.03, Parallelism: 8})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err = %v, want context.Canceled", pollsBeforeCancel, err)
		}
		if res != nil {
			t.Fatalf("polls=%d: cancelled run must not return a partial result", pollsBeforeCancel)
		}
	}
	// MineContext only returns after the pool's wg.Wait, so no worker
	// may outlive it; poll briefly to let exiting goroutines be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pooledCandidates lists every item pair and triple over db's
// vocabulary in lexicographic order: more than enough candidates for
// countVertical to fan out over its worker pool.
func pooledCandidates(t *testing.T, db *itemset.DB) []itemset.Itemset {
	t.Helper()
	n := int32(db.Dict.Len())
	var cands []itemset.Itemset
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			cands = append(cands, itemset.Itemset{a, b})
			for c := b + 1; c < n; c++ {
				cands = append(cands, itemset.Itemset{a, b, c})
			}
		}
	}
	if len(cands) < 256 {
		t.Fatalf("%d candidates; the pool only fans out from 256", len(cands))
	}
	return cands
}

// TestCountVerticalMatchesHorizontal pins the counting pool to the
// transaction-scan oracle: every candidate's support equals
// DB.SupportHorizontal at one worker, GOMAXPROCS, and several forced
// worker counts, on a candidate list long enough for the pool to split.
func TestCountVerticalMatchesHorizontal(t *testing.T) {
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, 300)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.NewDB(table)
	cands := pooledCandidates(t, db)
	for _, workers := range []int{1, 0, 2, 3, 8} {
		got := countVertical(context.Background(), db, cands, workers)
		for i, c := range cands {
			if want := db.SupportHorizontal(c); got[i] != want {
				t.Fatalf("workers=%d: support(%s) = %d, want %d", workers, c.Format(db.Dict), got[i], want)
			}
		}
	}
}

// TestCountingPoolDeterministicUnderKCPlus: with Φ dependencies and the
// same-feature filter engaged, Parallelism 2, 3 and 8 mine exactly the
// sequential result — itemsets, order, supports, prune tallies and every
// per-pass stat — on a table with a pass wide enough for the pool to
// fan out.
func TestCountingPoolDeterministicUnderKCPlus(t *testing.T) {
	table, err := datagen.PaperDataset1(datagen.DefaultSeed, 600)
	if err != nil {
		t.Fatal(err)
	}
	deps := make([]Pair, 0, len(datagen.Dataset1Dependencies))
	for _, d := range datagen.Dataset1Dependencies {
		deps = append(deps, Pair{A: d.A, B: d.B})
	}
	cfg := Config{MinSupport: 0.01, FilterSameFeature: true, Dependencies: deps, Parallelism: 1}
	seq, err := Mine(itemset.NewDB(table), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.PrunedDeps == 0 || seq.PrunedSameFeature == 0 {
		t.Fatalf("filters did not engage: pruned deps %d, same-feature %d", seq.PrunedDeps, seq.PrunedSameFeature)
	}
	widest := 0
	for _, s := range seq.Stats[1:] {
		if counted := s.Candidates - s.PrunedDeps - s.PrunedSameFeature; counted > widest {
			widest = counted
		}
	}
	if widest < 256 {
		t.Fatalf("widest pass counts %d candidates; the pool only fans out from 256", widest)
	}
	for _, workers := range []int{2, 3, 8} {
		db := itemset.NewDB(table)
		pcfg := cfg
		pcfg.Parallelism = workers
		par, err := Mine(db, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		sameResult(t, name, par, seq, db.Dict)
		if len(par.Stats) != len(seq.Stats) {
			t.Fatalf("%s: %d passes, want %d", name, len(par.Stats), len(seq.Stats))
		}
		for i, s := range seq.Stats {
			p := par.Stats[i]
			if p.K != s.K || p.Candidates != s.Candidates || p.Frequent != s.Frequent ||
				p.PrunedDeps != s.PrunedDeps || p.PrunedSameFeature != s.PrunedSameFeature {
				t.Errorf("%s: pass %d stat %+v, want %+v", name, s.K, p, s)
			}
		}
	}
}
