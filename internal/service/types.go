// Package service is the blocking-as-a-service layer: a long-running HTTP
// server that keeps graphs and per-graph solver sessions warm so repeated
// influence-minimization requests skip all setup cost (graph load,
// multi-seed unification, sampler/estimator scratch allocation).
//
// It is built from three parts:
//
//   - Registry: named, epoch-versioned graphs registered once (from an
//     edge-list file, a Table IV stand-in dataset, or a random-graph
//     generator), mutated through atomic NDJSON batches, and shared by
//     every request that names them as immutable per-epoch snapshots.
//   - SessionCache: an LRU of warm core.Session values keyed by
//     (graph, diffusion model), each serializing its callers to honor the
//     estimator's single-caller constraint.
//   - Server: the HTTP/JSON front end with a bounded solve worker pool and
//     per-request timeout/cancellation plumbed down into the greedy loops.
//
// With a durable store attached (internal/store, daemon flag -data-dir),
// registrations and mutation batches are written through to a per-graph
// write-ahead log before they are acknowledged, checkpointed in the
// background, and recovered to the exact pre-crash epoch at startup.
package service

import (
	"time"

	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/obs"
)

// RegisterGraphRequest is the body of POST /graphs. Name is required, plus
// exactly one graph source: Path (an edge-list or .bin file under the
// server's data directory), Dataset (a Table IV stand-in, generated at
// Scale), or Generator (a random-graph family).
type RegisterGraphRequest struct {
	Name string `json:"name"`

	// Path names a graph file relative to the server's data directory:
	// SNAP-style edge list ("u v [p]" lines) or the library's .bin format.
	Path       string `json:"path,omitempty"`
	Undirected bool   `json:"undirected,omitempty"` // edge-list files only

	// Dataset generates a synthetic stand-in for one of the paper's
	// Table IV datasets at Scale (fraction of published size, default 0.02).
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`

	// Generator is one of "preferential-attachment" (N, EdgesPerVertex,
	// Directed), "erdos-renyi" (N, M, Directed) or "watts-strogatz"
	// (N, K, Beta).
	Generator      string  `json:"generator,omitempty"`
	N              int     `json:"n,omitempty"`
	M              int     `json:"m,omitempty"`
	EdgesPerVertex float64 `json:"edges_per_vertex,omitempty"`
	K              int     `json:"k,omitempty"`
	Beta           float64 `json:"beta,omitempty"`
	Directed       bool    `json:"directed,omitempty"`

	// ProbModel assigns edge probabilities: "TR" (trivalency), "WC"
	// (weighted cascade) or "keep" (use the source's probabilities).
	// Default: "TR" for generated graphs, "keep" for files.
	ProbModel string `json:"prob_model,omitempty"`
	// Seed drives dataset/generator randomness and TR assignment.
	Seed uint64 `json:"seed,omitempty"`
}

// GraphInfo describes one registered graph (GET /graphs).
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Epoch counts committed mutation batches (0 = as registered);
	// PendingDeltas is the mutations applied since the overlay was last
	// compacted into a fresh CSR, Compactions how often that happened.
	Epoch         uint64    `json:"epoch"`
	PendingDeltas int       `json:"pending_deltas"`
	Compactions   int64     `json:"compactions"`
	Source        string    `json:"source"`
	RegisteredAt  time.Time `json:"registered_at"`
	// Durable reports that the graph is backed by the daemon's durable
	// store (-data-dir): mutations are write-ahead logged before they are
	// acknowledged and the graph survives restarts. Recovered additionally
	// marks that this instance was restored from disk at startup rather
	// than registered over the API.
	Durable   bool `json:"durable,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// Degraded marks a graph whose durable log failed: reads and solves
	// keep serving from the in-memory epoch, mutates return 503 until the
	// background self-heal checkpoints onto a fresh WAL generation.
	// DegradedReason is the persist failure that caused the transition.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// DeleteResponse reports DELETE /graphs/{id}: the graph is unregistered,
// its warm sessions dropped, and (when durable) its on-disk state removed.
type DeleteResponse struct {
	Graph   string `json:"graph"`
	Deleted bool   `json:"deleted"`
	// Epoch is the graph's final epoch at deletion.
	Epoch uint64 `json:"epoch"`
}

// MutateResponse reports one committed mutation batch
// (POST /graphs/{id}/mutate). The request body is NDJSON: one mutation
// object per line, {"op": "add-edge"|"remove-edge"|"set-prob"|"add-vertex"|
// "remove-vertex", "u": ..., "v": ..., "p": ...}, applied atomically — any
// invalid line rejects the whole batch with 400 and the graph unchanged.
type MutateResponse struct {
	Graph string `json:"graph"`
	// Epoch is the graph's epoch after this batch.
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	// Per-operation counts; EdgesRemoved includes edges dropped by
	// remove-vertex.
	EdgesAdded      int `json:"edges_added,omitempty"`
	EdgesRemoved    int `json:"edges_removed,omitempty"`
	ProbsChanged    int `json:"probs_changed,omitempty"`
	VerticesAdded   int `json:"vertices_added,omitempty"`
	VerticesRemoved int `json:"vertices_removed,omitempty"`
	// ChangedSources is how many vertices had their out-adjacency changed —
	// the dirty-sample criterion driving pool repair.
	ChangedSources int `json:"changed_sources"`
	// Compacted reports that this batch folded the delta overlay into a
	// fresh base CSR.
	Compacted bool `json:"compacted,omitempty"`
	// Vertices and Edges are the graph's new totals.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Repair reports the eager migration of the graph's warm sessions to
	// the new epoch.
	Repair RepairStats `json:"repair"`
}

// RepairStats reports how warm solver state crossed a mutation batch.
type RepairStats struct {
	// SessionsAdvanced migrated incrementally (pools repaired in place);
	// SessionsReset were too far behind the changelog and start cold.
	SessionsAdvanced int `json:"sessions_advanced"`
	SessionsReset    int `json:"sessions_reset"`
	// PoolsRepaired kept their sample arenas with only dirty samples
	// redrawn; PoolsDropped had to be discarded (vertex-count change under
	// a multi-seed instance).
	PoolsRepaired int `json:"pools_repaired"`
	PoolsDropped  int `json:"pools_dropped"`
	// SamplesRedrawn and SamplesKept partition the repaired pools' samples.
	SamplesRedrawn int64 `json:"samples_redrawn"`
	SamplesKept    int64 `json:"samples_kept"`
}

// MutationStats aggregates mutation activity across all graphs (GET /stats).
type MutationStats struct {
	Batches          int64 `json:"batches"`
	Mutations        int64 `json:"mutations"`
	Compactions      int64 `json:"compactions"`
	SessionsAdvanced int64 `json:"sessions_advanced"`
	SessionsReset    int64 `json:"sessions_reset"`
	PoolsRepaired    int64 `json:"pools_repaired"`
	PoolsDropped     int64 `json:"pools_dropped"`
	SamplesRedrawn   int64 `json:"samples_redrawn"`
	SamplesKept      int64 `json:"samples_kept"`
}

// SolveRequest is the body of POST /graphs/{id}/solve.
type SolveRequest struct {
	// Seeds are explicit misinformation-seed vertex ids; when empty,
	// NumSeeds random out-degree-positive vertices are drawn from Seed.
	Seeds    []int `json:"seeds,omitempty"`
	NumSeeds int   `json:"num_seeds,omitempty"`
	// Budget is the maximum number of vertices to block.
	Budget int `json:"budget"`
	// Algorithm: rand, outdegree, baseline-greedy, advanced-greedy or
	// greedy-replace (default).
	Algorithm string `json:"algorithm,omitempty"`
	// Model: "IC" (default) or "LT".
	Model string `json:"model,omitempty"`
	// Theta is Algorithm 2's sample count per greedy round (default: the
	// server's configured default, normally 10000; clamped to the server's
	// MaxTheta — the effective value is echoed in the response).
	Theta int `json:"theta,omitempty"`
	// MCSRounds is baseline-greedy's Monte-Carlo rounds per evaluation
	// (clamped to the server's MaxEvalRounds; effective value echoed).
	MCSRounds int `json:"mcs_rounds,omitempty"`
	// EvalRounds is the Monte-Carlo rounds for the before/after spread
	// report; 0 uses the server default, -1 skips the spread evaluation
	// (clamped to the server's MaxEvalRounds).
	EvalRounds int `json:"eval_rounds,omitempty"`
	// Seed makes the request reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the solve's internal parallelism (estimator workers,
	// spread evaluation). 0 uses the server's -workers default; values are
	// clamped to GOMAXPROCS. For reuse_samples solves the blocker output is
	// identical at every worker count (the estimator's worker reduction is
	// an exact integer sum), so workers is purely a latency/parallelism knob there;
	// fresh-sampling solves tie their rng streams to the worker count, so
	// equal workers is part of their reproducibility key.
	Workers int `json:"workers,omitempty"`
	// ReuseSamples draws the θ live-edge samples once and reuses the pool
	// across greedy rounds through the delta-maintained incremental
	// estimator; the pool is cached in the warm session keyed by
	// (seeds, seed, theta), so repeated solves skip sampling entirely.
	// Costs server memory proportional to θ × average sample size.
	ReuseSamples bool `json:"reuse_samples,omitempty"`
	// PoolEncoding is accepted for compatibility with clients written
	// when pools had two arena layouts: "", "flat" and "compressed" are
	// all valid and every pool uses the flat layout, so the value never
	// changes the output; any other value is rejected with 400.
	PoolEncoding string `json:"pool_encoding,omitempty"`
	// TimeoutMS caps the solve; 0 uses the server default. On expiry the
	// partial blocker set is returned with timed_out set.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace returns the solve's phase-span tree inline in the response
	// (queue waits, session migration, per-greedy-round timings with
	// dirty-sample counts). Purely observational: the blocker output is
	// bit-identical with or without it.
	Trace bool `json:"trace,omitempty"`
}

// SolveResponse reports a solve.
type SolveResponse struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	Seeds     []int  `json:"seeds"`
	Blockers  []int  `json:"blockers"`
	// SpreadBefore/SpreadAfter are Monte-Carlo estimates of the expected
	// spread with no blockers and with the returned blockers; omitted when
	// eval_rounds = -1.
	SpreadBefore *float64 `json:"spread_before,omitempty"`
	SpreadAfter  *float64 `json:"spread_after,omitempty"`
	ReductionPct *float64 `json:"reduction_pct,omitempty"`
	// Theta and MCSRounds echo the effective (defaulted, clamped) sample
	// counts, Workers the effective worker count (0 = server default);
	// SampledGraphs and MCSSimulations are the solver's cost counters.
	Theta          int   `json:"theta"`
	MCSRounds      int   `json:"mcs_rounds"`
	Workers        int   `json:"workers,omitempty"`
	SampledGraphs  int64 `json:"sampled_graphs,omitempty"`
	MCSSimulations int64 `json:"mcs_simulations,omitempty"`
	// SolveMS is the blocker-selection wall clock; TotalMS includes seed
	// resolution and the spread evaluations.
	SolveMS float64 `json:"solve_ms"`
	TotalMS float64 `json:"total_ms"`
	// TimedOut/Canceled report an early exit with a partial blocker set.
	TimedOut bool `json:"timed_out,omitempty"`
	Canceled bool `json:"canceled,omitempty"`
	// SessionCacheHit reports whether the request found a warm session for
	// (graph, model). The session caches prepared state per seed set, so a
	// hit skips all setup only when this seed set was solved recently; a
	// new seed set still pays instance+estimator construction once.
	SessionCacheHit bool `json:"session_cache_hit"`
	// RequestID echoes the X-Request-Id the middleware accepted or
	// generated, matching the structured log lines and trace entries.
	RequestID string `json:"request_id,omitempty"`
	// Cost is the per-solve cost model: queue waits, migrate/solve/eval
	// time, rounds, and sample counts. Always present; purely
	// observational — blockers are bit-identical with accounting on or
	// off.
	Cost *diag.SolveCost `json:"cost,omitempty"`
	// Trace is the solve's span tree, present when the request set
	// "trace": true.
	Trace *obs.TraceOut `json:"trace,omitempty"`
}

// BatchSolveRequest is the body of POST /graphs/{id}/solve-batch: a list
// of solve requests against one graph, answered through the same bounded
// worker pool and warm sessions as single solves. Items that share a
// diffusion model share one warm session, so a homogeneous batch pays
// instance preparation and (with reuse_samples and equal seed/theta) pool
// construction once, then streams b-round solves off the cached state.
type BatchSolveRequest struct {
	// Items are solved independently; item i is reported with index i.
	// Length is capped by the server's MaxBatchItems.
	Items []SolveRequest `json:"items"`
}

// BatchItemResult is one line of the solve-batch NDJSON response stream:
// exactly one of Result or Error is set. Lines are written in completion
// order — Index ties them back to the request's items array.
type BatchItemResult struct {
	Index  int            `json:"index"`
	Result *SolveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// PersistStats reports the durable store's activity (GET /stats). Present
// only when the daemon runs with -data-dir.
type PersistStats struct {
	// FsyncPolicy is the WAL durability policy in force ("always",
	// "interval" or "none").
	FsyncPolicy string `json:"fsync_policy"`
	// WALAppends/WALBytes/WALFsyncs count write-ahead-log activity since
	// startup; Checkpoints and CheckpointFailures count background
	// snapshot+truncate cycles.
	WALAppends         int64 `json:"wal_appends"`
	WALBytes           int64 `json:"wal_bytes"`
	WALFsyncs          int64 `json:"wal_fsyncs"`
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// RecoveredGraphs/ReplayedBatches describe this process's startup
	// recovery; TruncatedTails counts WALs whose torn or corrupt tail was
	// cut off during it.
	RecoveredGraphs int64 `json:"recovered_graphs"`
	ReplayedBatches int64 `json:"replayed_batches"`
	TruncatedTails  int64 `json:"truncated_tails"`
	// DegradedGraphs lists graphs currently in degraded read-only mode;
	// DegradedEnters counts transitions into it since startup, SelfHeals
	// how many background rescue checkpoints restored writability.
	DegradedGraphs []string `json:"degraded_graphs,omitempty"`
	DegradedEnters int64    `json:"degraded_enters"`
	SelfHeals      int64    `json:"self_heals"`
}

// StatsResponse is GET /stats: registry size, session-cache counters,
// mutation/repair activity, durability counters, and server load.
type StatsResponse struct {
	Graphs        int           `json:"graphs"`
	Sessions      CacheStats    `json:"sessions"`
	Mutations     MutationStats `json:"mutations"`
	Persist       *PersistStats `json:"persist,omitempty"`
	InFlight      int64         `json:"in_flight"`
	MaxConcurrent int           `json:"max_concurrent"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	// Sheds counts requests answered 429 because their admission wait
	// exceeded the queue bound; Panics counts handler panics recovered by
	// the middleware (each one a 500 instead of a dead daemon).
	Sheds  int64 `json:"sheds"`
	Panics int64 `json:"panics"`
}

// ErrorResponse is the JSON error envelope for every non-2xx response.
// RequestID is set on errors the observability middleware writes (panic
// 500s), correlating the body with the X-Request-Id header and log lines.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// TracesResponse is GET /debug/traces: the bounded in-memory ring of
// recent solve traces, newest first.
type TracesResponse struct {
	Traces []*obs.TraceOut `json:"traces"`
}

// BundlesResponse is GET /debug/bundles: the flight recorder's retained
// diagnostic bundles, newest first.
type BundlesResponse struct {
	Bundles []diag.BundleInfo `json:"bundles"`
}
