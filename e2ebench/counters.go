package main

import "repro/api"

// flatCounters flattens a /v1/metrics document into named counters: the
// obs counters under their own names, plus the cache and store totals.
func flatCounters(m api.Metrics) map[string]int64 {
	out := make(map[string]int64, len(m.Obs.Counters)+5)
	for k, v := range m.Obs.Counters {
		out[k] = v
	}
	out["cache.hits"] = m.Cache.Hits
	out["cache.misses"] = m.Cache.Misses
	out["cache.evictions"] = m.Cache.Evictions
	out["store.evictions"] = m.Store.Evictions
	return out
}

// diffCounters is after minus before for every counter in after; a
// counter absent before counts from 0.
func diffCounters(before, after api.Metrics) map[string]int64 {
	b, a := flatCounters(before), flatCounters(after)
	d := make(map[string]int64, len(a))
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// serverMetrics derives the server layer's per-layer metrics from the
// counters a timed phase added; patchMines is the number of successor
// mines the phase sent.
func serverMetrics(d map[string]int64, patchMines int) map[string]float64 {
	f := func(k string) float64 { return float64(d[k]) }
	lookups := f("cache.hits") + f("cache.misses")
	return map[string]float64{
		"server.cache_hit_ratio":       ratio(f("cache.hits"), lookups),
		"server.cache_evictions":       f("cache.evictions"),
		"server.store_evictions":       f("store.evictions"),
		"server.mine_runs_per_request": ratio(f("server.mine.runs")+f("server.colocate.runs"), lookups),
		"server.coalesced":             f("coalesce.hits"),
		"server.state_reuse_ratio":     ratio(f("delta.state.reused"), f("server.mine.runs")),
		"server.delta_patched_ratio":   ratio(f("delta.mine.patched"), float64(patchMines)),
	}
}
