package service

import (
	"time"

	"github.com/imin-dev/imin/internal/obs"
)

// serverMetrics is the single source of runtime counters: both GET /stats
// and GET /metrics read these instruments, so the two views cannot drift.
// Event-driven instruments live here; state that another component already
// tracks (registry size, session-cache counters, store totals) is exported
// through Func instruments registered in registerDerived, reading the same
// sources /stats reports.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP surface.
	httpRequests *obs.CounterVec // route, method, code
	httpSeconds  *obs.HistogramVec
	requestIDs   *obs.Counter

	// Solve path.
	solveSeconds *obs.HistogramVec // model, warm, encoding
	batchItems   *obs.Histogram
	queueWait    *obs.HistogramVec // queue = session | slot
	inFlight     *obs.Gauge
	sheds        *obs.Counter
	roundSeconds *obs.Histogram
	rounds       *obs.CounterVec // phase = select | replace
	dirtySamples *obs.Counter

	// Mutation / repair path.
	mutateSeconds    *obs.Histogram
	repairSeconds    *obs.Histogram
	sessionsAdvanced *obs.Counter
	sessionsReset    *obs.Counter
	poolsRepaired    *obs.Counter
	poolsDropped     *obs.Counter
	samplesRedrawn   *obs.Counter
	samplesKept      *obs.Counter

	// Robustness.
	panics         *obs.Counter
	degradedEnters *obs.Counter
	selfHeals      *obs.Counter

	// Flight recorder: per-solve cost model and SLO watchdogs.
	costSeconds    *obs.HistogramVec // phase = queue_session | queue_slot | migrate | solve | eval
	costSamples    *obs.HistogramVec // kind = drawn | dirty | redrawn
	sloBreaches    *obs.CounterVec   // route = solve | mutate
	bundles        *obs.Counter
	bundleErrors   *obs.Counter
	bundlesSkipped *obs.Counter
}

// sampleCountBuckets spans the sample volumes one solve can touch: from a
// handful of dirty samples on an incremental round to the ~1e7 fresh draws
// of a cold high-theta pool.
var sampleCountBuckets = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{reg: reg}
	m.httpRequests = reg.CounterVec("imind_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.",
		"route", "method", "code")
	m.httpSeconds = reg.HistogramVec("imind_http_request_seconds",
		"HTTP request latency by route pattern.", obs.DefTimeBuckets, "route")
	m.requestIDs = reg.Counter("imind_request_ids_generated_total",
		"Request IDs generated server-side (requests without X-Request-Id).")

	m.solveSeconds = reg.HistogramVec("imind_solve_seconds",
		"Blocker-selection latency by diffusion model, warm/cold session, and pool encoding.",
		obs.DefTimeBuckets, "model", "warm", "encoding")
	m.batchItems = reg.Histogram("imind_batch_item_seconds",
		"Per-item latency inside solve-batch requests.", obs.DefTimeBuckets)
	m.queueWait = reg.HistogramVec("imind_queue_wait_seconds",
		"Admission-queue wait before a solve: the per-graph session queue and the bounded solve pool.",
		obs.DefTimeBuckets, "queue")
	m.inFlight = reg.Gauge("imind_solves_in_flight",
		"Solves currently holding a slot of the bounded solve pool.")
	m.sheds = reg.Counter("imind_sheds_total",
		"Requests shed with 429 because an admission-queue wait exceeded the bound.")
	m.roundSeconds = reg.Histogram("imind_solve_round_seconds",
		"Latency of one greedy round (AdvancedGreedy / GreedyReplace).", obs.DefTimeBuckets)
	m.rounds = reg.CounterVec("imind_solve_rounds_total",
		"Greedy rounds run, by phase (select = argmax selection, replace = GreedyReplace's replacement pass).",
		"phase")
	m.dirtySamples = reg.Counter("imind_solve_dirty_samples_total",
		"Live-edge samples processed by solve rounds: reprocessed dirty samples (incremental pools) or freshly drawn ones.")

	m.mutateSeconds = reg.Histogram("imind_mutate_commit_seconds",
		"Mutation-batch commit latency, including the write-ahead-log append.", obs.DefTimeBuckets)
	m.repairSeconds = reg.Histogram("imind_session_repair_seconds",
		"Warm-session migration latency after a mutation (pool repair or reset).", obs.DefTimeBuckets)
	m.sessionsAdvanced = reg.Counter("imind_sessions_advanced_total",
		"Warm sessions migrated incrementally across a mutation (pools repaired in place).")
	m.sessionsReset = reg.Counter("imind_sessions_reset_total",
		"Warm sessions reset because the mutation changelog no longer reached their epoch.")
	m.poolsRepaired = reg.Counter("imind_pools_repaired_total",
		"Cached sample pools repaired in place across mutations.")
	m.poolsDropped = reg.Counter("imind_pools_dropped_total",
		"Cached sample pools discarded during migration.")
	m.samplesRedrawn = reg.Counter("imind_samples_redrawn_total",
		"Samples redrawn while repairing cached pools.")
	m.samplesKept = reg.Counter("imind_samples_kept_total",
		"Samples kept untouched while repairing cached pools.")

	m.panics = reg.Counter("imind_panics_total",
		"Handler panics recovered by the middleware (each one a 500 instead of a dead daemon).")
	m.degradedEnters = reg.Counter("imind_degraded_enters_total",
		"Graph transitions into degraded read-only mode after a persistence failure.")
	m.selfHeals = reg.Counter("imind_self_heals_total",
		"Degraded graphs restored to writable by a self-heal checkpoint.")

	m.costSeconds = reg.HistogramVec("imind_solve_cost_seconds",
		"Per-solve cost model: wall time attributed to each phase (queue_session, queue_slot, migrate, solve, eval).",
		obs.DefTimeBuckets, "phase")
	m.costSamples = reg.HistogramVec("imind_solve_cost_samples",
		"Per-solve cost model: sample counts by kind (drawn, dirty, redrawn).",
		sampleCountBuckets, "kind")
	m.sloBreaches = reg.CounterVec("imind_slo_breaches_total",
		"Latency-objective breaches, by route (solve = -slo-solve-ms, mutate = -slo-mutate-ms).",
		"route")
	m.bundles = reg.Counter("imind_diag_bundles_total",
		"Diagnostic bundles captured by the flight recorder.")
	m.bundleErrors = reg.Counter("imind_diag_bundle_errors_total",
		"Diagnostic bundle captures that failed.")
	m.bundlesSkipped = reg.Counter("imind_diag_bundles_skipped_total",
		"Diagnostic bundle captures suppressed by the cooldown or an in-flight capture.")
	return m
}

// registerDerived exports state owned by other components — the graph
// registry, the session cache, the durable store — as Func instruments
// reading exactly the sources handleStats reports.
func (m *serverMetrics) registerDerived(s *Server) {
	reg := m.reg
	reg.GaugeFunc("imind_graphs",
		"Registered graphs.", func() float64 { return float64(s.registry.Len()) })
	reg.GaugeFunc("imind_degraded_graphs",
		"Graphs currently in degraded read-only mode.",
		func() float64 { return float64(len(s.degradedGraphs())) })
	reg.GaugeFunc("imind_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("imind_max_concurrent_solves",
		"Capacity of the bounded solve pool.",
		func() float64 { return float64(s.cfg.MaxConcurrent) })

	reg.GaugeFunc("imind_sessions_cached",
		"Warm sessions currently cached.",
		func() float64 { return float64(s.sessions.Stats().Size) })
	reg.GaugeFunc("imind_session_pool_bytes",
		"Summed memory of all cached sample pools.",
		func() float64 { return float64(s.sessions.Stats().PoolBytes) })
	reg.CounterFunc("imind_session_hits_total",
		"Solve requests that found a warm session.",
		func() float64 { return float64(s.sessions.Stats().Hits) })
	reg.CounterFunc("imind_session_misses_total",
		"Solve requests that had to build a session.",
		func() float64 { return float64(s.sessions.Stats().Misses) })
	reg.CounterFunc("imind_session_evictions_total",
		"Warm sessions evicted from the LRU.",
		func() float64 { return float64(s.sessions.Stats().Evictions) })
	reg.CounterFunc("imind_session_pool_builds_total",
		"ReuseSamples solves that drew a fresh pool.",
		func() float64 { return float64(s.sessions.Stats().PoolBuilds) })
	reg.CounterFunc("imind_session_pool_reuses_total",
		"ReuseSamples solves answered from a warm pool.",
		func() float64 { return float64(s.sessions.Stats().PoolReuses) })

	reg.CounterFunc("imind_mutation_batches_total",
		"Mutation batches committed across all graphs.",
		func() float64 { b, _, _ := s.registry.MutationTotals(); return float64(b) })
	reg.CounterFunc("imind_mutations_total",
		"Individual mutations committed across all graphs.",
		func() float64 { _, mu, _ := s.registry.MutationTotals(); return float64(mu) })
	reg.CounterFunc("imind_compactions_total",
		"Delta-overlay compactions across all graphs.",
		func() float64 { _, _, c := s.registry.MutationTotals(); return float64(c) })

	if st := s.cfg.Store; st != nil {
		reg.CounterFunc("imind_wal_appends_total",
			"Write-ahead-log appends.", func() float64 { return float64(st.Stats().WALAppends) })
		reg.CounterFunc("imind_wal_bytes_total",
			"Bytes appended to write-ahead logs.", func() float64 { return float64(st.Stats().WALBytes) })
		reg.CounterFunc("imind_wal_fsyncs_total",
			"Write-ahead-log fsyncs.", func() float64 { return float64(st.Stats().WALFsyncs) })
		reg.CounterFunc("imind_checkpoints_total",
			"Snapshot+truncate checkpoint cycles completed.",
			func() float64 { return float64(st.Stats().Checkpoints) })
		reg.CounterFunc("imind_checkpoint_failures_total",
			"Checkpoint attempts that failed.",
			func() float64 { return float64(st.Stats().CheckpointFailures) })
		reg.CounterFunc("imind_recovered_graphs_total",
			"Graphs restored from disk at startup.",
			func() float64 { return float64(st.Stats().RecoveredGraphs) })
		reg.CounterFunc("imind_replayed_batches_total",
			"WAL batches replayed during startup recovery.",
			func() float64 { return float64(st.Stats().ReplayedBatches) })
		reg.CounterFunc("imind_truncated_tails_total",
			"WALs whose torn or corrupt tail was cut off during recovery.",
			func() float64 { return float64(st.Stats().TruncatedTails) })
	}
}

// warmLabel renders the session-cache outcome for the solve histogram.
func warmLabel(hit bool) string {
	if hit {
		return "warm"
	}
	return "cold"
}

// encodingLabel renders the pool-encoding label: reuse_samples solves run
// on a flat pool, everything else samples fresh ("none").
func encodingLabel(reuse bool) string {
	if !reuse {
		return "none"
	}
	return "flat"
}
