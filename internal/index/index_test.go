package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// makeItems generates n random small rectangles in a world of the given
// extent, deterministic per seed.
func makeItems(n int, extent float64, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * extent
		y := rng.Float64() * extent
		w := rng.Float64()*4 + 0.1
		h := rng.Float64()*4 + 0.1
		items[i] = Item{Env: geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: i}
	}
	return items
}

// sortedIDs is a helper for order-insensitive comparison.
func sortedIDs(ids []int) []int {
	out := append([]int{}, ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// searcher is the query surface shared by the R-tree and the Linear
// oracle.
type searcher interface {
	Search(query geom.Envelope, dst []int) []int
	SearchDistance(query geom.Envelope, d float64, dst []int) []int
	Len() int
}

// indexBuilders enumerates the indexes under test, each built from the
// same item set: the bulk-loaded R-tree and the Linear oracle itself
// (which pins the oracle's own answers on the shared fixtures).
func indexBuilders() map[string]func([]Item) searcher {
	return map[string]func([]Item) searcher{
		"rtree-bulk": func(items []Item) searcher { return NewRTreeBulk(items) },
		"linear":     func(items []Item) searcher { return NewLinear(items) },
	}
}

func TestIndexesAgreeWithLinearScan(t *testing.T) {
	items := makeItems(500, 100, 1)
	reference := NewLinear(items)
	queries := []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},     // everything
		{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20},     // window
		{MinX: 50, MinY: 50, MaxX: 50, MaxY: 50},     // point query
		{MinX: 200, MinY: 200, MaxX: 210, MaxY: 210}, // outside
	}
	for name, build := range indexBuilders() {
		idx := build(items)
		if idx.Len() != len(items) {
			t.Errorf("%s: Len = %d, want %d", name, idx.Len(), len(items))
		}
		for _, q := range queries {
			want := sortedIDs(reference.Search(q, nil))
			got := sortedIDs(idx.Search(q, nil))
			if !equalIDs(got, want) {
				t.Errorf("%s: Search(%+v) returned %d items, want %d", name, q, len(got), len(want))
			}
		}
	}
}

func TestIndexesAgreeOnDistanceSearch(t *testing.T) {
	items := makeItems(300, 100, 2)
	reference := NewLinear(items)
	q := geom.Envelope{MinX: 40, MinY: 40, MaxX: 45, MaxY: 45}
	for _, d := range []float64{0, 1, 5, 25, 1000} {
		want := sortedIDs(reference.SearchDistance(q, d, nil))
		for name, build := range indexBuilders() {
			got := sortedIDs(build(items).SearchDistance(q, d, nil))
			if !equalIDs(got, want) {
				t.Errorf("%s: SearchDistance(d=%v) = %d items, want %d", name, d, len(got), len(want))
			}
		}
	}
}

func TestRTreeEmpty(t *testing.T) {
	tr := &RTree{}
	if got := tr.Search(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil); len(got) != 0 {
		t.Error("empty tree search should return nothing")
	}
	if got := tr.SearchDistance(geom.Envelope{}, 1, nil); len(got) != 0 {
		t.Error("empty tree distance search should return nothing")
	}
	if tr.Height() != 0 {
		t.Error("empty tree height should be 0")
	}
	bulk := NewRTreeBulk(nil)
	if bulk.Len() != 0 {
		t.Error("bulk empty tree Len != 0")
	}
}

func TestRTreeBulkBalance(t *testing.T) {
	items := makeItems(1000, 200, 3)
	tr := NewRTreeBulk(items)
	// STR over 1000 items with fanout 9: ceil(log9(1000/9)) + 1 levels.
	if h := tr.Height(); h < 2 || h > 4 {
		t.Errorf("bulk tree height = %d, want a balanced 2-4", h)
	}
	assertInvariants(t, tr.root, tr.Height())
}

// assertInvariants checks that every node's envelope covers its payload and
// that all leaves are at the same depth.
func assertInvariants(t *testing.T, n *rtreeNode, wantLeafDepth int) {
	t.Helper()
	var walk func(n *rtreeNode, depth int)
	walk = func(n *rtreeNode, depth int) {
		if n.leaf {
			if depth != wantLeafDepth {
				t.Errorf("leaf at depth %d, want %d", depth, wantLeafDepth)
			}
			for _, it := range n.items {
				if !n.env.Contains(it.Env) {
					t.Errorf("leaf envelope does not cover item %d", it.ID)
				}
			}
			return
		}
		if len(n.children) == 0 {
			t.Error("internal node with no children")
			return
		}
		for _, c := range n.children {
			if !n.env.Contains(c.env) {
				t.Error("node envelope does not cover child")
			}
			walk(c, depth+1)
		}
	}
	walk(n, 1)
}

func TestQuickIndexEquivalence(t *testing.T) {
	// Property: for random item sets and random query windows, the
	// R-tree returns exactly the linear-scan result.
	f := func(seed int64, qx, qy, qw, qh uint8) bool {
		items := makeItems(80, 50, seed)
		q := geom.Envelope{
			MinX: float64(qx % 50), MinY: float64(qy % 50),
			MaxX: float64(qx%50) + float64(qw%20), MaxY: float64(qy%50) + float64(qh%20),
		}
		want := sortedIDs(NewLinear(items).Search(q, nil))
		rt := sortedIDs(NewRTreeBulk(items).Search(q, nil))
		return equalIDs(rt, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
