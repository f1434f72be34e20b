// Incremental extraction: a State is the extraction engine. It keeps
// everything a full extraction computes — fitted discretizers, per-layer
// prepared geometries and R-trees, and each reference row's item parts —
// so that a mutated successor dataset re-extracts only its dirty region
// instead of the whole scene. ExtractContext is a State built and read
// out once.
//
// The dirty-region math inverts gatherCandidates: a changed relevant
// feature can only affect a reference row if the row's candidate gather
// could include the feature's old or new envelope. An R-tree over the
// reference envelopes answers that reverse query with the same radius
// the forward gather uses (everything for directional/disjoint/farFrom
// families, CloseMax+Eps for distance, Eps for pure topology), so the
// set of re-extracted rows is exactly the set whose candidate lists can
// change. Prepared geometries of untouched features — both relevant-
// layer features and the reference geometries of partially re-extracted
// rows — are reused, never rebuilt.
package transact

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/obs"
)

// State is a reusable extraction context bound to one dataset and one
// Options value. Build it with NewStateContext (a full extraction),
// read the result with Table, and advance it to a mutated successor
// dataset with Apply. A State is not safe for concurrent mutation;
// callers serialise Apply against Table.
type State struct {
	d    *dataset.Dataset
	opts Options
	disc Discretizer
	cuts map[string]*FittedDiscretizer

	anyFamily bool
	// prep[li][j] is the prepared geometry of relevant layer li's
	// feature j; nil when prepared geometries are disabled or no
	// relation family is on.
	prep [][]*geom.Prepared
	// indexes[li] is the candidate-filter R-tree over layer li.
	indexes []*index.RTree
	// refIndex answers the reverse dirty-row query: which reference
	// rows can a changed envelope affect. Built by the first Apply that
	// needs it, and dropped when the reference layer changes.
	refIndex *index.RTree
	// prepRef[j] is row j's prepared reference geometry (nil entries
	// when unprepared; nil in ExtractContext's throwaway state).
	prepRef []*geom.Prepared

	// attr[j] holds row j's non-spatial items (is_a + attributes);
	// spatial[j][li] holds row j's spatial items against layer li. The
	// transaction is their concatenation, sorted and deduplicated.
	attr    [][]string
	spatial [][][]string
}

// RowChange records one row whose normalised items differ between a
// State and its patched successor. Old is nil for inserted rows; New is
// nil for deleted rows (whose Row is the predecessor index).
type RowChange struct {
	Row      int
	Old, New []string
}

// TableDelta describes how Apply changed the transaction table, in
// exactly the shape the incremental miner consumes.
type TableDelta struct {
	// NewFromOld maps every successor row index to its predecessor row
	// index (-1 for inserted rows).
	NewFromOld []int
	// Changed lists surviving rows whose normalised items differ
	// (successor indexing), including inserted rows.
	Changed []RowChange
	// Deleted lists removed rows (predecessor indexing, New == nil).
	Deleted []RowChange
	// RowsTotal / RowsDirty / RowsReused count the successor rows, the
	// rows whose spatial parts were re-extracted, and the rows carried
	// over untouched.
	RowsTotal, RowsDirty, RowsReused int
	// PreparedReused / PreparedBuilt count prepared geometries carried
	// over versus newly built during the patch.
	PreparedReused, PreparedBuilt int
}

// Identity reports whether the delta changes no row.
func (td *TableDelta) Identity() bool {
	return len(td.Changed) == 0 && len(td.Deleted) == 0
}

// NewState builds extraction state with a full extraction; see
// NewStateContext.
func NewState(d *dataset.Dataset, opts Options) (*State, error) {
	return NewStateContext(context.Background(), d, opts)
}

// NewStateContext performs a full extraction of d under opts, keeping
// every intermediate the delta path reuses. It shares its one full
// extraction path with ExtractContext, so both report the same
// extract.prepare stage and extract.* counters.
func NewStateContext(ctx context.Context, d *dataset.Dataset, opts Options) (*State, error) {
	return newStateContext(ctx, d, opts, true)
}

// newStateContext is the full extraction behind NewStateContext and
// ExtractContext. keepRefPrep retains each row's prepared reference
// geometry for Apply to reuse; ExtractContext, which never applies,
// passes false so each one is garbage once its row is done (on a
// 1600-row scene they are about 1.6 MB of live heap).
func newStateContext(ctx context.Context, d *dataset.Dataset, opts Options, keepRefPrep bool) (*State, error) {
	if d.Reference == nil {
		return nil, fmt.Errorf("transact: dataset has no reference layer")
	}
	if opts.IsZero() {
		return nil, fmt.Errorf("transact: zero Options (enable a relation family, or configure attributes-only extraction explicitly)")
	}
	disc := opts.Discretizer
	if disc == nil {
		disc = DefaultDiscretizer()
	}
	cuts, err := fitNumericAttrs(d, disc)
	if err != nil {
		return nil, err
	}
	s := &State{
		d:         d,
		opts:      opts,
		disc:      disc,
		cuts:      cuts,
		anyFamily: opts.Topological || opts.Distance || opts.Directional,
	}
	tr := obs.FromContext(ctx)

	var preparedBuilds, preparedEdges int64
	if s.anyFamily && !opts.NoPrepare {
		sp := tr.Stage("extract.prepare")
		s.prep = make([][]*geom.Prepared, len(d.Relevant))
		for i, layer := range d.Relevant {
			if err := ctx.Err(); err != nil {
				sp.End()
				return nil, err
			}
			prep := make([]*geom.Prepared, layer.Len())
			for j := range layer.Features {
				prep[j] = geom.Prepare(layer.Features[j].Geometry)
				preparedBuilds++
				preparedEdges += int64(prep[j].NumEdges())
			}
			s.prep[i] = prep
		}
		sp.End()
	}
	if s.anyFamily {
		s.indexes = make([]*index.RTree, len(d.Relevant))
		for i, layer := range d.Relevant {
			s.indexes[i] = buildLayerIndex(layer, s.layerPrep(i))
		}
	}

	n := d.Reference.Len()
	s.attr = make([][]string, n)
	s.spatial = make([][][]string, n)
	if keepRefPrep {
		s.prepRef = make([]*geom.Prepared, n)
	}

	var candidatesExamined, itemsEmitted atomic.Int64
	var relatesRefined, refinesSkipped atomic.Int64
	var refPreparedBuilds, refPreparedEdges atomic.Int64
	rows := make([]int, n)
	for j := range rows {
		rows[j] = j
	}
	workers := workerCount(opts.Parallelism, n)
	bufs := make([][]int, workers)
	err = forEachRow(ctx, rows, workers, func(w, j int) {
		var st refineStats
		attr, spatial, pref, nCand := s.extractRowParts(d, s.cuts, j, &bufs[w], &st)
		s.attr[j] = attr
		s.spatial[j] = spatial
		if keepRefPrep {
			s.prepRef[j] = pref
		}
		candidatesExamined.Add(nCand)
		items := int64(len(attr))
		for _, part := range spatial {
			items += int64(len(part))
		}
		itemsEmitted.Add(items)
		relatesRefined.Add(st.relates)
		refinesSkipped.Add(st.skipped)
		if pref != nil {
			refPreparedBuilds.Add(1)
			refPreparedEdges.Add(int64(pref.NumEdges()))
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Add("extract.rows", int64(n))
	tr.Add("extract.candidates", candidatesExamined.Load())
	tr.Add("extract.items", itemsEmitted.Load())
	tr.Add("extract.relates", relatesRefined.Load())
	tr.Add("extract.refine.skipped", refinesSkipped.Load())
	if s.prep != nil {
		tr.Add("extract.prepared.builds", preparedBuilds+refPreparedBuilds.Load())
		tr.Add("extract.prepared.edges", preparedEdges+refPreparedEdges.Load())
	}
	return s, nil
}

// Dataset returns the dataset the state currently reflects.
func (s *State) Dataset() *dataset.Dataset { return s.d }

// Options returns the extraction options the state was built with.
func (s *State) Options() Options { return s.opts }

// Table assembles the current transaction table. Each row concatenates
// its non-spatial part with the per-layer spatial parts and is then
// sorted and deduplicated, so the result is independent of part
// boundaries: a patched state's table equals a fresh extraction's.
func (s *State) Table() *dataset.Table {
	rows := make([]dataset.Transaction, len(s.attr))
	for j := range rows {
		rows[j] = dataset.Transaction{RefID: s.d.Reference.Features[j].ID, Items: rowItems(s.attr[j], s.spatial[j])}
	}
	return &dataset.Table{Transactions: rows}
}

// rowItems concatenates one row's non-spatial and spatial parts into a
// fresh slice, sorted and deduplicated in place — the normalised
// transaction dataset.NormalizeItems would produce, without its copy.
func rowItems(attr []string, spatial [][]string) []string {
	n := len(attr)
	for _, part := range spatial {
		n += len(part)
	}
	items := make([]string, 0, n)
	items = append(items, attr...)
	for _, part := range spatial {
		items = append(items, part...)
	}
	slices.Sort(items)
	return slices.Compact(items)
}

// Apply advances the state to the mutated successor dataset nd, whose
// difference from the current dataset is described by cs (both from
// dataset.ApplyOps). Only the dirty region re-extracts:
//
//   - a changed relevant feature re-extracts exactly the (row, layer)
//     pairs whose candidate gather can see its old or new envelope;
//   - a changed reference feature re-extracts its own row fully;
//   - a discretizer cut change re-renders every row's attribute items
//     (no geometry work);
//   - everything else — item parts, prepared geometries, indexes of
//     untouched layers — is carried over.
//
// The returned TableDelta is the exact row-level difference of the
// transaction tables, ready for itemset.DB.ApplyDelta and
// mining.PatchResultContext. Counters delta.rows.total/dirty/reused and
// delta.prepared.reused/builds report the reuse to any obs.Trace.
func (s *State) Apply(ctx context.Context, nd *dataset.Dataset, cs *dataset.ChangeSet) (*TableDelta, error) {
	if nd.Reference == nil || nd.Reference.Type != s.d.Reference.Type {
		return nil, fmt.Errorf("transact: delta: reference layer mismatch")
	}
	if len(nd.Relevant) != len(s.d.Relevant) {
		return nil, fmt.Errorf("transact: delta: relevant layer count changed")
	}
	for i := range nd.Relevant {
		if nd.Relevant[i].Type != s.d.Relevant[i].Type {
			return nil, fmt.Errorf("transact: delta: relevant layer %d type changed", i)
		}
	}
	tr := obs.FromContext(ctx)

	newCuts, err := fitNumericAttrs(nd, s.disc)
	if err != nil {
		return nil, err
	}
	attrsChanged := !cutsEqual(newCuts, s.cuts)

	// Map successor reference rows onto predecessor rows by feature ID.
	oldRef := s.d.Reference
	oldByID := make(map[string]int, oldRef.Len())
	for i := range oldRef.Features {
		oldByID[oldRef.Features[i].ID] = i
	}
	refDiff := cs.Layer(oldRef.Type)
	var refUpdated map[string]bool
	if refDiff != nil {
		refUpdated = stringSet(refDiff.Updated)
	}
	n := nd.Reference.Len()
	newFromOld := make([]int, n)
	oldToNew := make([]int, oldRef.Len())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	fullRow := make([]bool, n)
	for j := range nd.Reference.Features {
		id := nd.Reference.Features[j].ID
		old, ok := oldByID[id]
		if !ok {
			newFromOld[j] = -1
			fullRow[j] = true
			continue
		}
		newFromOld[j] = old
		oldToNew[old] = j
		if refUpdated[id] {
			fullRow[j] = true
		}
	}

	// Advance changed relevant layers (prepared cache + index) and mark
	// the rows their dirty envelopes can reach.
	var preparedReused, preparedBuilt int64
	layerDirty := make([][]bool, len(nd.Relevant))
	allDirty := s.opts.Directional || s.opts.IncludeDisjoint || (s.opts.Distance && s.opts.IncludeFarFrom)
	var queryBuf []int
	for li := range nd.Relevant {
		ld := cs.Layer(nd.Relevant[li].Type)
		if ld.Empty() {
			continue
		}
		oldLayer, newLayer := s.d.Relevant[li], nd.Relevant[li]
		oldIdx := make(map[string]int, oldLayer.Len())
		for i := range oldLayer.Features {
			oldIdx[oldLayer.Features[i].ID] = i
		}
		updated := stringSet(ld.Updated)
		if s.prep != nil {
			newPrep := make([]*geom.Prepared, newLayer.Len())
			for j := range newLayer.Features {
				if oi, ok := oldIdx[newLayer.Features[j].ID]; ok && !updated[newLayer.Features[j].ID] {
					newPrep[j] = s.prep[li][oi]
					preparedReused++
				} else {
					newPrep[j] = geom.Prepare(newLayer.Features[j].Geometry)
					preparedBuilt++
				}
			}
			s.prep[li] = newPrep
		}
		if s.anyFamily {
			s.indexes[li] = buildLayerIndex(newLayer, s.layerPrep(li))

			dirty := make([]bool, n)
			if allDirty {
				for j := range dirty {
					dirty[j] = true
				}
			} else {
				mark := func(env geom.Envelope) {
					queryBuf = s.dirtyRowQuery(env, queryBuf[:0])
					for _, oldRow := range queryBuf {
						if nj := oldToNew[oldRow]; nj >= 0 {
							dirty[nj] = true
						}
					}
				}
				for _, id := range ld.Updated {
					if oi, ok := oldIdx[id]; ok {
						mark(oldLayer.Features[oi].Geometry.Envelope())
					}
					if ni, ok := layerFeatureIdx(newLayer, id); ok {
						mark(newLayer.Features[ni].Geometry.Envelope())
					}
				}
				for _, id := range ld.Inserted {
					if ni, ok := layerFeatureIdx(newLayer, id); ok {
						mark(newLayer.Features[ni].Geometry.Envelope())
					}
				}
				for _, id := range ld.Deleted {
					if oi, ok := oldIdx[id]; ok {
						mark(oldLayer.Features[oi].Geometry.Envelope())
					}
				}
			}
			layerDirty[li] = dirty
		}
	}

	// Assemble the successor row parts: carry untouched parts over,
	// collect the rows that need (partial or full) re-extraction.
	oldAttr, oldSpatial, oldPrepRef := s.attr, s.spatial, s.prepRef
	newAttr := make([][]string, n)
	newSpatial := make([][][]string, n)
	newPrepRef := make([]*geom.Prepared, n)
	dirtyLayersOf := make([][]int, n)
	var jobs []int
	var attrJobs []int
	dirtyRows := 0
	for j := 0; j < n; j++ {
		if fullRow[j] {
			jobs = append(jobs, j)
			dirtyRows++
			continue
		}
		old := newFromOld[j]
		newAttr[j] = oldAttr[old]
		newSpatial[j] = oldSpatial[old]
		newPrepRef[j] = oldPrepRef[old]
		var dls []int
		for li := range layerDirty {
			if layerDirty[li] != nil && layerDirty[li][j] {
				dls = append(dls, li)
			}
		}
		if len(dls) > 0 {
			dirtyLayersOf[j] = dls
			// Copy the part slice so overwriting dirty entries cannot
			// alias the predecessor's (still needed for Old items).
			newSpatial[j] = append([][]string{}, oldSpatial[old]...)
			jobs = append(jobs, j)
			dirtyRows++
		} else if attrsChanged {
			attrJobs = append(attrJobs, j)
		}
	}

	var refPreparedBuilds, prefReused atomic.Int64
	workers := workerCount(s.opts.Parallelism, len(jobs))
	bufs := make([][]int, workers)
	err = forEachRow(ctx, jobs, workers, func(w, j int) {
		var st refineStats
		if fullRow[j] {
			attr, spatial, pref, _ := s.extractRowParts(nd, newCuts, j, &bufs[w], &st)
			newAttr[j] = attr
			newSpatial[j] = spatial
			newPrepRef[j] = pref
			if pref != nil {
				refPreparedBuilds.Add(1)
			}
			return
		}
		// Partial re-extraction: reuse the prepared reference geometry,
		// redo only the dirty layers.
		pref := newPrepRef[j]
		if pref != nil {
			prefReused.Add(1)
		}
		ref := &nd.Reference.Features[j]
		refEnv := ref.Geometry.Envelope()
		if pref != nil {
			refEnv = pref.Envelope()
		}
		for _, li := range dirtyLayersOf[j] {
			bufs[w] = gatherCandidates(s.indexes[li], refEnv, s.opts, bufs[w][:0])
			newSpatial[j][li] = appendSpatialItems(nil, ref, pref, nd.Relevant[li], s.prep, li, refEnv, bufs[w], s.opts, &st)
		}
		if attrsChanged {
			newAttr[j] = s.appendAttrPart(nil, nd, newCuts, j)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, j := range attrJobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		newAttr[j] = s.appendAttrPart(nil, nd, newCuts, j)
	}

	// Diff the tables row by row (normalised) to produce the exact
	// mining delta; untouched rows are equal by construction and are
	// not compared.
	delta := &TableDelta{
		NewFromOld:     newFromOld,
		RowsTotal:      n,
		RowsDirty:      dirtyRows,
		RowsReused:     n - dirtyRows,
		PreparedReused: int(preparedReused + prefReused.Load()),
		PreparedBuilt:  int(preparedBuilt + refPreparedBuilds.Load()),
	}
	oldRowItems := func(old int) []string { return rowItems(oldAttr[old], oldSpatial[old]) }
	recomputed := make(map[int]bool, len(jobs)+len(attrJobs))
	for _, j := range jobs {
		recomputed[j] = true
	}
	for _, j := range attrJobs {
		recomputed[j] = true
	}
	for j := 0; j < n; j++ {
		if !recomputed[j] {
			continue
		}
		newItems := rowItems(newAttr[j], newSpatial[j])
		if newFromOld[j] < 0 {
			delta.Changed = append(delta.Changed, RowChange{Row: j, New: newItems})
			continue
		}
		oldItems := oldRowItems(newFromOld[j])
		if !stringSlicesEqual(oldItems, newItems) {
			delta.Changed = append(delta.Changed, RowChange{Row: j, Old: oldItems, New: newItems})
		}
	}
	for old := range oldToNew {
		if oldToNew[old] < 0 {
			delta.Deleted = append(delta.Deleted, RowChange{Row: old, Old: oldRowItems(old)})
		}
	}

	// Commit the successor state.
	s.d = nd
	s.cuts = newCuts
	s.attr = newAttr
	s.spatial = newSpatial
	s.prepRef = newPrepRef
	if !refDiff.Empty() {
		s.refIndex = nil
	}

	tr.Add("delta.rows.total", int64(delta.RowsTotal))
	tr.Add("delta.rows.dirty", int64(delta.RowsDirty))
	tr.Add("delta.rows.reused", int64(delta.RowsReused))
	tr.Add("delta.prepared.reused", int64(delta.PreparedReused))
	tr.Add("delta.prepared.builds", int64(delta.PreparedBuilt))
	if attrsChanged {
		tr.Add("delta.attr.refits", 1)
	}
	return delta, nil
}

// extractRowParts performs a full single-row extraction under the given
// fitted cuts, returning the non-spatial part, per-layer spatial parts,
// the prepared reference geometry (nil when unprepared), and the
// candidate count. The cuts are a parameter, not s.cuts: Apply renders
// full rows under the successor's refit before committing it.
//
// All parts share one backing slice; each is capacity-clipped
// (items[start:end:end]) so Apply can replace one part without touching
// its neighbours.
func (s *State) extractRowParts(d *dataset.Dataset, cuts map[string]*FittedDiscretizer, j int, buf *[]int, st *refineStats) ([]string, [][]string, *geom.Prepared, int64) {
	items := s.appendAttrPart(make([]string, 0, 8), d, cuts, j)
	nAttr := len(items)
	spatial := make([][]string, len(d.Relevant))
	if !s.anyFamily {
		return items[:nAttr:nAttr], spatial, nil, 0
	}
	ref := &d.Reference.Features[j]
	var pref *geom.Prepared
	refEnv := ref.Geometry.Envelope()
	if s.prep != nil {
		pref = geom.Prepare(ref.Geometry)
		refEnv = pref.Envelope()
	}
	var nCand int64
	for li := range d.Relevant {
		*buf = gatherCandidates(s.indexes[li], refEnv, s.opts, (*buf)[:0])
		nCand += int64(len(*buf))
		start := len(items)
		items = appendSpatialItems(items, ref, pref, d.Relevant[li], s.prep, li, refEnv, *buf, s.opts, st)
		spatial[li] = items[start:] // length only; re-sliced below
	}
	// Appends may have moved the backing array: re-slice every part from
	// the final one.
	end := nAttr
	for li, part := range spatial {
		start := end
		end += len(part)
		spatial[li] = items[start:end:end]
	}
	return items[:nAttr:nAttr], spatial, pref, nCand
}

// appendAttrPart appends row j's non-spatial items (is_a + attributes)
// under the given fitted cuts to items.
func (s *State) appendAttrPart(items []string, d *dataset.Dataset, cuts map[string]*FittedDiscretizer, j int) []string {
	if s.opts.IncludeIsA {
		items = append(items, "is_a_"+d.Reference.Type)
	}
	return appendAttrItems(items, &d.Reference.Features[j], d.NonSpatialAttrs, cuts)
}

// dirtyRowQuery returns the predecessor reference rows whose candidate
// gather can include a feature with envelope env — the reverse of
// gatherCandidates, with the same per-family radius. Callers handle the
// take-everything families before getting here. The first query after
// a build or a reference-layer change builds the reverse R-tree over the
// current (predecessor) reference envelopes.
func (s *State) dirtyRowQuery(env geom.Envelope, dst []int) []int {
	if s.refIndex == nil {
		s.refIndex = buildRefIndex(s.d.Reference)
	}
	if s.opts.Distance {
		return s.refIndex.SearchDistance(env, s.opts.Thresholds.CloseMax+geom.Eps, dst)
	}
	return s.refIndex.Search(env.Buffer(geom.Eps), dst)
}

// layerPrep returns the prepared slice of layer li, nil when disabled.
func (s *State) layerPrep(li int) []*geom.Prepared {
	if s.prep == nil {
		return nil
	}
	return s.prep[li]
}

// buildLayerIndex builds the candidate-filter R-tree for one layer,
// reusing prepared envelopes when available.
func buildLayerIndex(layer *dataset.Layer, prep []*geom.Prepared) *index.RTree {
	items := make([]index.Item, layer.Len())
	for j := range layer.Features {
		if prep != nil {
			items[j] = index.Item{Env: prep[j].Envelope(), ID: j}
		} else {
			items[j] = index.Item{Env: layer.Features[j].Geometry.Envelope(), ID: j}
		}
	}
	return index.NewRTreeBulk(items)
}

// buildRefIndex builds the reverse-query R-tree over the reference
// envelopes. It only accelerates dirty-row discovery and never affects
// extraction output.
func buildRefIndex(ref *dataset.Layer) *index.RTree {
	items := make([]index.Item, ref.Len())
	for j := range ref.Features {
		items[j] = index.Item{Env: ref.Features[j].Geometry.Envelope(), ID: j}
	}
	return index.NewRTreeBulk(items)
}

// cutsEqual compares two fitted discretizer maps field-wise.
func cutsEqual(a, b map[string]*FittedDiscretizer) bool {
	if len(a) != len(b) {
		return false
	}
	for k, fa := range a {
		fb, ok := b[k]
		if !ok || !reflect.DeepEqual(fa, fb) {
			return false
		}
	}
	return true
}

// stringSet builds a membership set.
func stringSet(ss []string) map[string]bool {
	if len(ss) == 0 {
		return nil
	}
	set := make(map[string]bool, len(ss))
	for _, s := range ss {
		set[s] = true
	}
	return set
}

// stringSlicesEqual compares two string slices element-wise.
func stringSlicesEqual(a, b []string) bool {
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

// layerFeatureIdx finds a feature by ID within a layer.
func layerFeatureIdx(l *dataset.Layer, id string) (int, bool) {
	for i := range l.Features {
		if l.Features[i].ID == id {
			return i, true
		}
	}
	return 0, false
}

// workerCount resolves the effective worker-pool size for n jobs.
func workerCount(parallelism, n int) int {
	w := parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if n < 2 {
		w = 1
	}
	return w
}

// forEachRow fans the given rows out over a fixed worker pool (fn
// receives the worker index for per-worker scratch). Sequential when
// workers is 1. Returns ctx.Err() if cancelled.
func forEachRow(ctx context.Context, rows []int, workers int, fn func(worker, row int)) error {
	if workers <= 1 {
		for _, r := range rows {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, r)
		}
		return ctx.Err()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := range next {
				if ctx.Err() != nil {
					continue
				}
				fn(w, r)
			}
		}(w)
	}
	for _, r := range rows {
		if ctx.Err() != nil {
			break
		}
		next <- r
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}
