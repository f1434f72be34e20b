package index

import "repro/internal/geom"

// Linear is the no-index oracle: a flat list scanned on every query. The
// R-tree tests compare every answer against it.
type Linear struct {
	items []Item
}

// NewLinear creates a Linear scan index over the items.
func NewLinear(items []Item) *Linear {
	return &Linear{items: append([]Item{}, items...)}
}

// Len reports the number of stored items.
func (l *Linear) Len() int { return len(l.items) }

// Search mirrors RTree.Search by scanning every item.
func (l *Linear) Search(query geom.Envelope, dst []int) []int {
	for _, it := range l.items {
		if it.Env.Intersects(query) {
			dst = append(dst, it.ID)
		}
	}
	return dst
}

// SearchDistance mirrors RTree.SearchDistance by scanning every item.
func (l *Linear) SearchDistance(query geom.Envelope, d float64, dst []int) []int {
	for _, it := range l.items {
		if it.Env.Distance(query) <= d {
			dst = append(dst, it.ID)
		}
	}
	return dst
}
