package engine

import (
	"ascendperf/internal/sim"
	"ascendperf/internal/stats"
)

// Snapshot is the execution layer's counter snapshot: the engine block
// of ascendd's /v1/stats (serve.EngineStats) and the engine series of
// its /metrics page. Each field is the one declaration of its counter;
// the tags name it on every surface (see internal/stats, and the
// FORMATS.md §8.4 table a test keeps in step with these tags).
type Snapshot struct {
	CacheHits      uint64  `json:"cache_hits" metric:"ascendd_engine_cache_hits_total" kind:"counter" help:"Memory simulation cache hits, including lookups that joined an in-flight miss."`
	CacheMisses    uint64  `json:"cache_misses" metric:"ascendd_engine_cache_misses_total" kind:"counter" help:"Memory simulation cache misses."`
	CacheEvictions uint64  `json:"cache_evictions" metric:"ascendd_engine_cache_evictions_total" kind:"counter" help:"Memory simulation cache evictions."`
	CacheEntries   int     `json:"cache_entries" metric:"ascendd_engine_cache_entries" kind:"gauge" help:"Memory simulation cache resident entries."`
	CacheHitRate   float64 `json:"cache_hit_rate" kind:"gauge" help:"Memory simulation cache hits / (hits + misses), 0 before the first lookup."`

	SchedRuns       uint64 `json:"sched_runs" metric:"ascendd_sched_runs_total" kind:"counter" help:"Completed simulations."`
	SchedEvents     uint64 `json:"sched_events" metric:"ascendd_sched_events_total" kind:"counter" help:"Scheduler event-loop rounds."`
	SchedStarts     uint64 `json:"sched_starts" metric:"ascendd_sched_starts_total" kind:"counter" help:"Instruction starts."`
	SchedEligChecks uint64 `json:"sched_elig_checks" metric:"ascendd_sched_elig_checks_total" kind:"counter" help:"Queue-head eligibility checks."`
	SchedWakes      uint64 `json:"sched_wakes" metric:"ascendd_sched_wakes_total" kind:"counter" help:"Wake-list re-queues."`
	SchedPoolHits   uint64 `json:"sched_pool_hits" metric:"ascendd_sched_pool_hits_total" kind:"counter" help:"Pooled scheduler-state reuses."`
	SchedPoolMisses uint64 `json:"sched_pool_misses" metric:"ascendd_sched_pool_misses_total" kind:"counter" help:"Fresh scheduler-state allocations."`

	// SurrogateFallback counts gate rejections plus ineligible requests
	// such as span-keeping runs.
	SurrogatePredicted uint64 `json:"surrogate_predicted" metric:"ascendd_surrogate_predicted_total" kind:"counter" help:"Cache misses answered by the learned surrogate."`
	SurrogateGated     uint64 `json:"surrogate_gated" metric:"ascendd_surrogate_gated_total" kind:"counter" help:"Surrogate predictions rejected by the confidence gate."`
	SurrogateFallback  uint64 `json:"surrogate_fallback" metric:"ascendd_surrogate_fallback_total" kind:"counter" help:"Requests served by the exact simulator with a predictor configured."`

	// A search's exact simulations are deduplicated per program
	// fingerprint and counted whether or not a cache tier answered
	// them, so the count is a property of the search trajectory, not of
	// cache warmth.
	SearchSearches        uint64 `json:"search_searches" metric:"ascendd_search_searches_total" kind:"counter" help:"Beam searches completed (optimize with search)."`
	SearchExactSims       uint64 `json:"search_exact_sims" metric:"ascendd_search_exact_sims_total" kind:"counter" help:"Exact simulations issued by searches."`
	SearchSurrogateScored uint64 `json:"search_surrogate_scored" metric:"ascendd_search_surrogate_scored_total" kind:"counter" help:"Always 0: beam candidates are ranked by the critical-path proxy alone; kept for wire compatibility."`
	SearchProxyScored     uint64 `json:"search_proxy_scored" metric:"ascendd_search_proxy_scored_total" kind:"counter" help:"Beam candidates scored by the static critical-path proxy."`
	SearchEvalsSaved      uint64 `json:"search_evals_saved" metric:"ascendd_search_evals_saved_total" kind:"counter" help:"Scored candidates never confirmed exactly."`
	SearchWarmHits        uint64 `json:"search_warm_hits" metric:"ascendd_search_warm_hits_total" kind:"counter" help:"Searches answered from the episodic memory."`
	SearchWarmMisses      uint64 `json:"search_warm_misses" metric:"ascendd_search_warm_misses_total" kind:"counter" help:"Searches that found no usable episode."`
	SearchEpisodeWrites   uint64 `json:"search_episode_writes" metric:"ascendd_search_episode_writes_total" kind:"counter" help:"Episodes persisted after cold searches."`

	GraphSchedules       uint64 `json:"graph_schedules" metric:"ascendd_graph_schedules_total" kind:"counter" help:"Whole-graph schedules computed."`
	GraphNodes           uint64 `json:"graph_nodes" metric:"ascendd_graph_nodes_total" kind:"counter" help:"Graph nodes scheduled."`
	GraphEdges           uint64 `json:"graph_edges" metric:"ascendd_graph_edges_total" kind:"counter" help:"Graph dependency edges scheduled."`
	GraphTransfers       uint64 `json:"graph_transfers" metric:"ascendd_graph_transfers_total" kind:"counter" help:"Cross-core edges that paid a GM transfer."`
	GraphSerialFallbacks uint64 `json:"graph_serial_fallbacks" metric:"ascendd_graph_serial_fallbacks_total" kind:"counter" help:"Schedules that fell back to serial order."`
}

// Live holds the process-wide totals of the surrogate_*, search_* and
// graph_* counters. Increment its fields only with atomic.AddUint64;
// read them through Stats. The cache and scheduler fields stay zero
// here: Stats reads those from the sharded cache and the scheduler's
// striped counters.
var Live Snapshot

// Stats returns a snapshot of the engine's process-wide counters.
func Stats() Snapshot {
	s := stats.Load(&Live)
	if c := defaultCache.Load(); c != nil {
		cs := c.Stats()
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheEntries, s.CacheHitRate = cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.HitRate()
	}
	sc := sim.ReadCounters()
	s.SchedRuns, s.SchedEvents, s.SchedStarts, s.SchedEligChecks = sc.Runs, sc.Events, sc.Starts, sc.EligChecks
	s.SchedWakes, s.SchedPoolHits, s.SchedPoolMisses = sc.Wakes, sc.PoolHits, sc.PoolMisses
	return s
}
