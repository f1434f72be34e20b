package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/metrics"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/transact"
)

// tracer accumulates the traced pass: every layer call of a replayed op
// is timed from outside, around the layer's public function, and the
// program's own obs counters and stage spans are read from the trace
// attached to the op's context. Times are the process's CPU time: the
// pass runs on one core, so the CPU time of a call is the work it did,
// without the time the hypervisor stole while it ran. Totals are divided
// by the op count at the end, so every *_ms figure is a mean self time
// per op.
type tracer struct {
	ops    int
	opTime time.Duration
	self   map[string]time.Duration
	counts map[string]float64
	obs    *obs.Trace
	ctx    context.Context

	gcCPU, busyCPU, allocBytes float64
	rt                         []metrics.Sample

	// From replayExtractLayers: candidates, the relates among them, the
	// relates that emit an item, and the time the relates took.
	replayCandidates, replayRelates, replayUseful float64
	replayRelateTime                              time.Duration
}

func newTracer() *tracer {
	t := &tracer{
		self:   map[string]time.Duration{},
		counts: map[string]float64{},
		obs:    obs.New(nil),
		rt: []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
			{Name: "/cpu/classes/idle:cpu-seconds"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	t.ctx = obs.WithTrace(context.Background(), t.obs)
	return t
}

// runtimeNow reads GC CPU time, busy CPU time and cumulative heap
// allocation.
func (t *tracer) runtimeNow() (gc, busy, alloc float64) {
	metrics.Read(t.rt)
	return t.rt[0].Value.Float64(), t.rt[1].Value.Float64() - t.rt[2].Value.Float64(), float64(t.rt[3].Value.Uint64())
}

// op replays one op: fn performs the layer calls through t.layer, and
// the op's time is everything fn takes. The runtime counters are read
// outside the timed region.
func (t *tracer) op(fn func() error) error {
	gc0, busy0, alloc0 := t.runtimeNow()
	d, err := cpuSpan(fn)
	gc1, busy1, alloc1 := t.runtimeNow()
	t.ops++
	t.opTime += d
	t.gcCPU += gc1 - gc0
	t.busyCPU += busy1 - busy0
	t.allocBytes += alloc1 - alloc0
	return err
}

// layer times one call into a layer and books it under name.
func (t *tracer) layer(name string, fn func() error) error {
	d, err := cpuSpan(fn)
	t.self[name] += d
	return err
}

// reattribute moves d of parent's booked time to child: the parent's
// call contained the child's work, measured separately.
func (t *tracer) reattribute(parent, child string, d time.Duration) {
	t.self[parent] -= d
	t.self[child] += d
}

// counter is the total of one obs counter over the pass so far.
func (t *tracer) counter(name string) float64 { return float64(t.obs.Counter(name)) }

// stage is the total wall time of one obs stage span over the pass.
func (t *tracer) stage(name string) time.Duration {
	return time.Duration(t.obs.Counter("stage." + name + ".nanos"))
}

// metrics turns the totals into the per-layer metric set: per-op means
// of every self time, per-op counts, and the unattributed remainder.
// Metrics the workload never touched stay 0.
func (t *tracer) metrics(untracedMs float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	n := float64(max(t.ops, 1))
	var attributed float64
	for _, name := range selfTimeLayers {
		v := ms(t.self[name]) / n
		out[name] = v
		attributed += v
	}
	for name, v := range t.counts {
		out[name] = v / n
	}
	opMs := ms(t.opTime) / n
	out["trace.op_ms"] = opMs
	out["core.other_ms"] = opMs - attributed
	out["trace.overhead_ms"] = opMs - untracedMs
	out["geom.relates_per_build"] = ratio(t.counts["de9im.relates"], t.counts["geom.prepare_builds"])
	out["index.useful_ratio"] = ratio(t.replayUseful, t.replayCandidates)
	out["de9im.ns_per_relate"] = ratio(float64(t.replayRelateTime), t.replayRelates)
	out["runtime.gc_cpu_share"] = ratio(t.gcCPU, t.busyCPU)
	out["runtime.alloc_bytes_per_op"] = t.allocBytes / n
	return out
}

// encodeResponse is the api layer: building the wire form of a result
// and encoding it as JSON.
func (t *tracer) encodeResponse(build func() *api.MineResponse) error {
	return t.layer("api.encode_ms", func() error {
		b, err := json.Marshal(build())
		t.counts["api.encode_bytes"] += float64(len(b))
		return err
	})
}

// mineTable replays the mining half of a pipeline run on a table:
// intern, mine, rules, encode. It returns the outcome for verification.
func (t *tracer) mineTable(table *dataset.Table, cfg core.Config, digest string) (*core.Outcome, error) {
	mcfg, err := core.EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	out := &core.Outcome{Table: table}
	t.layer("itemset.newdb_ms", func() error { out.DB = itemset.NewDB(table); return nil })
	if err := t.layer("mining.mine_ms", func() error {
		out.Result, err = mining.MineContext(t.ctx, out.DB, mcfg)
		return err
	}); err != nil {
		return nil, err
	}
	if cfg.GenerateRules {
		t.layer("mining.rules_ms", func() error { out.Rules = mining.GenerateRules(out.Result, cfg.MinConfidence); return nil })
		t.counts["mining.rules"] += float64(len(out.Rules))
	}
	return out, t.encodeResponse(func() *api.MineResponse { return mineResponse(digest, cfg, out) })
}

// countMining books the mining counters the trace has accumulated.
func (t *tracer) countMining() {
	for _, c := range [][2]string{
		{"mining.candidates", "mine.candidates"},
		{"mining.frequent", "mine.frequent"},
		{"mining.pruned_same_feature", "mine.pruned_same_feature"},
	} {
		t.counts[c[0]] = t.counter(c[1])
	}
}

// replaySceneOp replays one scene-cli op: decode, extract, intern, mine,
// rules, encode. After the timed op it re-runs extraction's inner layers
// (prepare, index build and search, DE-9IM relate) one by one on the
// same scene, and moves their time out of transact.extract_ms, whose
// remainder is extraction's own self time.
func (t *tracer) replaySceneOp(body []byte, cfg core.Config, opts transact.Options) (*core.Outcome, error) {
	var out *core.Outcome
	var ds *dataset.Dataset
	err := t.op(func() error {
		var err error
		if err = t.layer("dataset.read_scene_ms", func() error {
			ds, err = dataset.ReadJSON(bytes.NewReader(body))
			return err
		}); err != nil {
			return err
		}
		var table *dataset.Table
		if err = t.layer("transact.extract_ms", func() error {
			table, err = transact.ExtractContext(t.ctx, ds, opts)
			return err
		}); err != nil {
			return err
		}
		out, err = t.mineTable(table, cfg, "")
		return err
	})
	if err != nil {
		return nil, err
	}
	t.replayExtractLayers(ds)
	t.countMining()
	t.counts["geom.prepare_builds"] = t.counter("extract.prepared.builds")
	t.counts["index.candidates"] = t.counter("extract.candidates")
	t.counts["de9im.relates"] = t.counter("extract.relates")
	return out, nil
}

// replayExtractLayers performs, layer by layer, the work a topological
// extraction of ds does inside transact.ExtractContext, and reattributes
// each layer's time from transact.extract_ms to the layer.
func (t *tracer) replayExtractLayers(ds *dataset.Dataset) {
	prep := make([][]*geom.Prepared, len(ds.Relevant))
	prepRef := make([]*geom.Prepared, ds.Reference.Len())
	prepared, _ := cpuSpan(func() error {
		for i, l := range ds.Relevant {
			prep[i] = make([]*geom.Prepared, l.Len())
			for j := range l.Features {
				prep[i][j] = geom.Prepare(l.Features[j].Geometry)
			}
		}
		for r := range ds.Reference.Features {
			prepRef[r] = geom.Prepare(ds.Reference.Features[r].Geometry)
		}
		return nil
	})

	trees := make([]*index.RTree, len(ds.Relevant))
	built, _ := cpuSpan(func() error {
		for i := range ds.Relevant {
			items := make([]index.Item, len(prep[i]))
			for j, p := range prep[i] {
				items[j] = index.Item{Env: p.Envelope(), ID: j}
			}
			trees[i] = index.NewRTreeBulk(items)
		}
		return nil
	})

	cands := make([][][]int, len(prepRef))
	searched, _ := cpuSpan(func() error {
		for r, pref := range prepRef {
			cands[r] = make([][]int, len(trees))
			for i, tree := range trees {
				cands[r][i] = tree.Search(pref.Envelope().Buffer(geom.Eps), nil)
			}
		}
		return nil
	})

	var nCand, relates, useful int
	matrices := make([]de9im.Matrix, 0, 1024)
	related, _ := cpuSpan(func() error {
		for r, pref := range prepRef {
			env := pref.Envelope().Buffer(geom.Eps)
			for i, cs := range cands[r] {
				for _, c := range cs {
					if env.Intersects(prep[i][c].Envelope()) {
						matrices = append(matrices, de9im.RelatePrepared(pref, prep[i][c]))
					}
				}
			}
		}
		return nil
	})

	// Untimed: which candidates emit an item (a non-disjoint relation).
	k := 0
	for r, pref := range prepRef {
		env := pref.Envelope().Buffer(geom.Eps)
		for i, cs := range cands[r] {
			nCand += len(cs)
			for _, c := range cs {
				if !env.Intersects(prep[i][c].Envelope()) {
					continue
				}
				relates++
				dimA, dimB := pref.Geometry().Dimension(), prep[i][c].Geometry().Dimension()
				if de9im.ClassifyMatrix(matrices[k], dimA, dimB) != de9im.Disjoint {
					useful++
				}
				k++
			}
		}
	}

	t.reattribute("transact.extract_ms", "geom.prepare_ms", prepared)
	t.reattribute("transact.extract_ms", "index.build_ms", built)
	t.reattribute("transact.extract_ms", "index.search_ms", searched)
	t.reattribute("transact.extract_ms", "de9im.relate_ms", related)
	t.replayCandidates += float64(nCand)
	t.replayUseful += float64(useful)
	t.replayRelates += float64(relates)
	t.replayRelateTime += related
}
