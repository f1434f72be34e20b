package main

import (
	"testing"

	"repro/api"
)

func TestServerCountersAreDifferenced(t *testing.T) {
	before := api.Metrics{
		Obs:   api.ObsCounters{Counters: map[string]int64{"server.mine.runs": 5, "delta.state.reused": 1, "coalesce.hits": 2}},
		Cache: api.CacheStats{Hits: 10, Misses: 5, Evictions: 1},
		Store: api.StoreStats{Evictions: 3},
	}
	after := api.Metrics{
		Obs: api.ObsCounters{Counters: map[string]int64{
			"server.mine.runs": 25, "server.colocate.runs": 5, "delta.state.reused": 11,
			"delta.mine.patched": 8, "coalesce.hits": 2,
		}},
		Cache: api.CacheStats{Hits: 40, Misses: 35, Evictions: 4},
		Store: api.StoreStats{Evictions: 3},
	}
	d := diffCounters(before, after)
	for k, want := range map[string]int64{
		"server.mine.runs": 20, "server.colocate.runs": 5, "delta.state.reused": 10,
		"delta.mine.patched": 8, "coalesce.hits": 0, "cache.hits": 30, "cache.misses": 30,
		"cache.evictions": 3, "store.evictions": 0,
	} {
		if d[k] != want {
			t.Errorf("diff %s = %d, want %d", k, d[k], want)
		}
	}
	m := serverMetrics(d, 10)
	for k, want := range map[string]float64{
		"server.cache_hit_ratio":       0.5,
		"server.cache_evictions":       3,
		"server.store_evictions":       0,
		"server.mine_runs_per_request": 25.0 / 60,
		"server.coalesced":             0,
		"server.state_reuse_ratio":     0.5,
		"server.delta_patched_ratio":   0.8,
	} {
		if !near(m[k], want) {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}
