package main

// metricDef is one benchmark metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run (-trace 0) reports, on
// every workload. An "op" is one qsrmine process run on the CLI
// workloads and one request on server-mix. Times are CPU times (see
// cpuTime); wall-clock latencies are printed as report lines.
var endToEnd = []metricDef{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics every traced run (-trace 1) reports, on every
// workload. Layers are named after the repository's packages; a *_ms
// layer metric is that layer's self time per traced op, and a layer the
// workload never reaches reports 0. Counts are per traced op unless the
// README says otherwise.
var perLayer = []metricDef{
	{Name: "dataset.read_scene_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.read_table_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.apply_ops_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.write_scene_ms", Unit: "ms", Better: "lower"},
	{Name: "geom.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "geom.prepare_builds", Unit: "count", Better: "lower"},
	{Name: "geom.relates_per_build", Unit: "ratio", Better: "higher"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "index.search_ms", Unit: "ms", Better: "lower"},
	{Name: "index.candidates", Unit: "count", Better: "lower"},
	{Name: "index.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "de9im.relate_ms", Unit: "ms", Better: "lower"},
	{Name: "de9im.relates", Unit: "count", Better: "lower"},
	{Name: "de9im.ns_per_relate", Unit: "ns", Better: "lower"},
	{Name: "transact.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "transact.state_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "transact.rows_dirty", Unit: "count", Better: "lower"},
	{Name: "itemset.newdb_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.candidates", Unit: "count", Better: "lower"},
	{Name: "mining.frequent", Unit: "count", Better: "lower"},
	{Name: "mining.pruned_same_feature", Unit: "count", Better: "higher"},
	{Name: "mining.rules_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.rules", Unit: "count", Better: "lower"},
	{Name: "api.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "api.encode_bytes", Unit: "B", Better: "lower"},
	{Name: "colocation.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "colocation.neighbors_ms", Unit: "ms", Better: "lower"},
	{Name: "colocation.walk_ms", Unit: "ms", Better: "lower"},
	{Name: "colocation.pairs_refined", Unit: "count", Better: "lower"},
	{Name: "colocation.star_pruned", Unit: "count", Better: "higher"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.store_evictions", Unit: "count", Better: "lower"},
	{Name: "server.mine_runs_per_request", Unit: "ratio", Better: "lower"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.state_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.delta_patched_ratio", Unit: "ratio", Better: "higher"},
	{Name: "persist.save_dataset_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.save_result_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.saves", Unit: "count", Better: "lower"},
	{Name: "persist.bytes", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "core.other_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.op_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
}

// selfTimeLayers are the per-layer *_ms metrics that partition a traced
// op: their sum plus core.other_ms is trace.op_ms.
var selfTimeLayers = []string{
	"dataset.read_scene_ms", "dataset.read_table_ms", "dataset.apply_ops_ms", "dataset.write_scene_ms",
	"geom.prepare_ms", "index.build_ms", "index.search_ms", "de9im.relate_ms",
	"transact.extract_ms", "transact.state_apply_ms", "itemset.newdb_ms",
	"mining.mine_ms", "mining.rules_ms", "api.encode_ms",
	"colocation.mine_ms", "colocation.neighbors_ms", "colocation.walk_ms",
}
