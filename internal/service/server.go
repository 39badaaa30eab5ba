package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/obs"
	"github.com/imin-dev/imin/internal/rng"
	"github.com/imin-dev/imin/internal/store"
)

// Config tunes a Server. The zero value is serviceable: all cores, a
// session cache of 8 graphs, the paper's default θ, and no file loading.
type Config struct {
	// MaxConcurrent bounds the solve worker pool: at most this many solves
	// (plus their spread evaluations) run at once, the rest queue on the
	// request context. Default GOMAXPROCS.
	MaxConcurrent int
	// MaxSessions bounds the warm-session LRU. Default 8.
	MaxSessions int
	// SolveWorkers is the per-solve parallelism handed to the estimator
	// (Options.Workers). Default 0 = all cores.
	SolveWorkers int
	// DomAlgo selects the dominator algorithm for every session.
	DomAlgo core.DomAlgo
	// DefaultTimeout caps solves that do not set timeout_ms; 0 = none.
	DefaultTimeout time.Duration
	// DefaultTheta, DefaultMCSRounds and DefaultEvalRounds fill unset
	// request fields. Defaults 10000, 10000, 2000.
	DefaultTheta      int
	DefaultMCSRounds  int
	DefaultEvalRounds int
	// MaxTheta and MaxEvalRounds clamp the per-request sample counts (one
	// estimation round is not cancelable, so unbounded values would let a
	// single request burn CPU past any timeout). Defaults 1e6 and 50000.
	MaxTheta      int
	MaxEvalRounds int
	// MaxGraphSize rejects generator registrations whose vertex count or
	// estimated edge count exceeds it, and MaxGraphs bounds how many
	// graphs may be registered at all — the registry holds whole graphs
	// in memory forever, so neither one oversized POST nor many
	// right-sized ones may OOM the daemon. Defaults 20e6 and 64.
	// (Files are bounded by DataDir contents, datasets by Scale <= 1.)
	MaxGraphSize int
	MaxGraphs    int
	// MaxBatchItems caps the item count of one solve-batch request: items
	// run through the same bounded solve pool as single requests, but each
	// admitted batch holds its unfinished items queued in memory. Default 64.
	MaxBatchItems int
	// MaxMutations caps the operations of one mutation batch; a batch is
	// committed atomically, so its tentative state is held in memory in
	// full. Default 100000.
	MaxMutations int
	// MaxQueueWait bounds how long a solve or mutate request may sit in an
	// admission queue (the per-graph session queue and the bounded solve
	// pool). Past the bound the request is shed with 429 + Retry-After
	// instead of holding a connection open indefinitely. 0 = unbounded.
	MaxQueueWait time.Duration
	// CheckpointRetries and CheckpointRetryBackoff govern background
	// checkpoints that fail with a transient error (ENOSPC and friends):
	// up to CheckpointRetries extra attempts, doubling the backoff between
	// them. Permanent errors are never retried. Defaults 3 and 250ms.
	CheckpointRetries      int
	CheckpointRetryBackoff time.Duration
	// HealBackoff and HealMaxBackoff pace the self-heal loop of a degraded
	// graph: the first heal attempt runs after HealBackoff, doubling up to
	// HealMaxBackoff until a checkpoint succeeds. Defaults 100ms and 5s.
	HealBackoff    time.Duration
	HealMaxBackoff time.Duration
	// DisableDegraded restores the legacy behavior for persistence
	// failures: a plain 500 with no degraded read-only mode and no
	// self-heal. Kept as an escape hatch; degraded mode is the default.
	DisableDegraded bool
	// DataDir is the only directory path-based graph registration may read
	// from; empty disables file loading entirely.
	DataDir string
	// Store, when set, makes the registry durable: registrations and
	// mutation batches are written through to its WAL/snapshot state
	// before they are acknowledged, and Recover restores graphs from it
	// at startup. Nil keeps the server fully in-memory.
	Store *store.Store
	// Metrics is the registry GET /metrics exposes and every instrument
	// registers into. Pass the same registry to store.Config.Metrics so the
	// WAL timing histograms land on the same scrape. Nil creates a private
	// registry.
	Metrics *obs.Registry
	// Logger receives the structured request/operational log lines. Nil
	// uses slog.Default().
	Logger *slog.Logger
	// TraceRing is the capacity of the in-memory ring of recent solve
	// traces served by GET /debug/traces. 0 uses the default (256);
	// negative disables tracing entirely, which also makes the per-solve
	// span bookkeeping allocation-free.
	TraceRing int
	// SLOSolve and SLOMutate are per-route latency objectives. A request
	// that exceeds its objective counts an imind_slo_breaches_total breach
	// and — when DiagDir is set — captures a diagnostic bundle. 0 disables
	// the watchdog for that route.
	SLOSolve  time.Duration
	SLOMutate time.Duration
	// DiagDir enables the flight recorder: SLO breaches and degraded-mode
	// entries capture a diagnostic bundle (offending trace, recent trace
	// ring, metrics snapshot, goroutine + heap profiles, build info),
	// written atomically under this directory and served by
	// GET /debug/bundles. Empty disables capture.
	DiagDir string
	// DiagMaxBundles bounds bundle retention (oldest deleted past it;
	// default 16). DiagCooldown spaces captures so a breach storm cannot
	// churn the directory (default 30s; negative disables the cooldown).
	DiagMaxBundles int
	DiagCooldown   time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.DefaultTheta <= 0 {
		c.DefaultTheta = 10000
	}
	if c.DefaultMCSRounds <= 0 {
		c.DefaultMCSRounds = 10000
	}
	if c.DefaultEvalRounds <= 0 {
		c.DefaultEvalRounds = 2000
	}
	if c.MaxTheta <= 0 {
		c.MaxTheta = 1_000_000
	}
	if c.MaxEvalRounds <= 0 {
		c.MaxEvalRounds = 50_000
	}
	if c.MaxGraphSize <= 0 {
		c.MaxGraphSize = 20_000_000
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxMutations <= 0 {
		c.MaxMutations = 100_000
	}
	if c.CheckpointRetries <= 0 {
		c.CheckpointRetries = 3
	}
	if c.CheckpointRetryBackoff <= 0 {
		c.CheckpointRetryBackoff = 250 * time.Millisecond
	}
	if c.HealBackoff <= 0 {
		c.HealBackoff = 100 * time.Millisecond
	}
	if c.HealMaxBackoff <= 0 {
		c.HealMaxBackoff = 5 * time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP front end. Create with New, mount Handler on an
// http.Server.
type Server struct {
	cfg      Config
	registry *Registry
	sessions *SessionCache
	sem      chan struct{}
	regSem   chan struct{} // serializes graph builds: N concurrent registrations must not hold N graphs transiently
	mux      *http.ServeMux
	started  time.Time

	// metrics holds every runtime instrument; /stats and /metrics both
	// read from it, so the two views cannot drift. traces is the bounded
	// ring behind /debug/traces (nil when tracing is disabled). diag is
	// the flight recorder behind /debug/bundles (nil when DiagDir is
	// unset).
	metrics *serverMetrics
	logger  *slog.Logger
	traces  *obs.TraceRing
	diag    *diag.Recorder

	// Robustness accounting and background-goroutine lifecycle: stopHeal
	// cancels self-heal and checkpoint-retry loops at Close, bgWG waits for
	// them so Close never races a checkpoint against Store.Close.
	stopHeal chan struct{}
	closed   atomic.Bool
	bgWG     sync.WaitGroup
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxGraphs),
		sessions: NewSessionCache(cfg.MaxSessions, cfg.SolveWorkers, cfg.DomAlgo),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		regSem:   make(chan struct{}, 1),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		stopHeal: make(chan struct{}),
		metrics:  newServerMetrics(cfg.Metrics),
		logger:   cfg.Logger,
		traces:   obs.NewTraceRing(cfg.TraceRing),
	}
	if cfg.Store != nil {
		s.registry.AttachStore(cfg.Store)
	}
	if cfg.DiagDir != "" {
		reg := s.metrics.reg
		s.diag = diag.NewRecorder(diag.Config{
			Dir:        cfg.DiagDir,
			MaxBundles: cfg.DiagMaxBundles,
			Cooldown:   cfg.DiagCooldown,
			Logger:     cfg.Logger,
			Build:      buildVersion,
			Metrics: func() ([]byte, error) {
				var b bytes.Buffer
				if err := reg.WritePrometheus(&b); err != nil {
					return nil, err
				}
				return b.Bytes(), nil
			},
		})
	}
	s.metrics.registerDerived(s)
	registerBuildInfo(s.metrics.reg)
	s.mux.HandleFunc("POST /graphs", s.handleRegister)
	s.mux.HandleFunc("GET /graphs", s.handleList)
	s.mux.HandleFunc("GET /graphs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /graphs/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /graphs/{id}/solve", s.handleSolve)
	s.mux.HandleFunc("POST /graphs/{id}/solve-batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /graphs/{id}/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/bundles", s.handleBundles)
	s.mux.HandleFunc("GET /debug/bundles/{id}", s.handleBundle)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	return s
}

// Recover restores every graph the durable store holds and registers it.
// Call once at startup, before serving. Without a store it is a no-op.
func (s *Server) Recover() ([]*store.Recovered, error) {
	if s.cfg.Store == nil {
		return nil, nil
	}
	recs, err := s.cfg.Store.Recover()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, err := s.registry.RegisterRecovered(rec); err != nil {
			return nil, fmt.Errorf("registering recovered graph %q: %w", rec.Name, err)
		}
	}
	return recs, nil
}

// Close flushes durable state for shutdown: every graph's WAL is fsynced
// and a final checkpoint taken (so the next start replays nothing), then
// the store is closed. Call after the HTTP listener has drained — pending
// handlers append to the WAL, and anything they acknowledged must be on
// disk before the process exits. Without a store it is a no-op.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stopHeal)
	}
	// Wait out self-heal and checkpoint-retry goroutines: they hold graph
	// stores that are about to close underneath them.
	s.bgWG.Wait()
	if s.cfg.Store == nil {
		return nil
	}
	err := s.registry.SyncAndCheckpointAll()
	if cerr := s.cfg.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Handler returns the route table wrapped in the observability middleware:
// request-ID assignment, structured request logs, HTTP metrics, and panic
// recovery — a panicking handler becomes a logged, correlatable 500 instead
// of tearing down the whole connection (and, under http.Serve, leaking a
// broken keep-alive).
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// Metrics exposes the instrument registry (tests, embedding servers).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// degrade flips entry into degraded read-only mode and starts its
// self-heal loop. Idempotent: concurrent persistence failures of the same
// graph start exactly one healer.
func (s *Server) degrade(entry *GraphEntry, cause error) {
	if s.cfg.DisableDegraded {
		return
	}
	if !entry.markDegraded(cause.Error()) {
		return
	}
	s.metrics.degradedEnters.Inc()
	s.logger.Error("graph entered degraded read-only mode", "graph", entry.Name, "cause", cause.Error())
	// A degraded-mode entry is exactly the moment worth a flight-recorder
	// snapshot: the trace ring still holds the requests that led up to the
	// persistence failure.
	s.captureBundle(diag.Trigger{
		Reason: "degraded",
		Route:  "mutate",
		Graph:  entry.Name,
		Detail: cause.Error(),
	}, nil)
	s.bgWG.Add(1)
	go s.healLoop(entry)
}

// healLoop restores a degraded graph to writable: it retries a full
// checkpoint (fresh snapshot + new WAL generation, superseding the poisoned
// log) with doubling backoff until one succeeds. Writability is restored
// strictly AFTER the checkpoint's manifest durably covers the in-memory
// epoch — clearing earlier would let new appends land in a log whose base
// epoch recovery cannot reach, and the epoch-continuity check would then
// truncate acknowledged batches.
func (s *Server) healLoop(entry *GraphEntry) {
	defer s.bgWG.Done()
	backoff := s.cfg.HealBackoff
	for {
		select {
		case <-s.stopHeal:
			return
		case <-time.After(backoff):
		}
		if cur, ok := s.registry.Get(entry.Name); !ok || cur != entry {
			return // deleted or replaced while degraded; nothing left to heal
		}
		err := entry.checkpoint(context.Background())
		if err == nil {
			entry.clearDegraded()
			s.metrics.selfHeals.Inc()
			s.logger.Info("graph self-healed: fresh checkpoint on a new WAL generation, writable again", "graph", entry.Name)
			return
		}
		if errors.Is(err, errCheckpointBusy) {
			continue // someone else's checkpoint may heal us; re-check soon
		}
		s.logger.Warn("self-heal checkpoint failed", "graph", entry.Name, "error", err.Error(), "next_attempt_in", backoff)
		if backoff *= 2; backoff > s.cfg.HealMaxBackoff {
			backoff = s.cfg.HealMaxBackoff
		}
	}
}

// backgroundCheckpoint runs a threshold-triggered checkpoint off the
// request path, retrying transient failures (ENOSPC and friends) a bounded
// number of times with doubling backoff. Permanent failures are not
// retried. Either way, if the attempts left the WAL poisoned the graph is
// degraded so the self-heal loop takes over. ctx only carries the
// triggering request's id into store/checkpoint log lines — pass a
// context.WithoutCancel so the client hanging up cannot cancel the
// checkpoint it triggered.
func (s *Server) backgroundCheckpoint(ctx context.Context, entry *GraphEntry) {
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		backoff := s.cfg.CheckpointRetryBackoff
		var err error
		for attempt := 0; ; attempt++ {
			err = entry.Checkpoint(ctx)
			if err == nil {
				return
			}
			s.logger.Warn("background checkpoint failed",
				"graph", entry.Name, "attempt", attempt+1, "request_id", RequestID(ctx),
				"class", store.Classify(err).String(), "error", err.Error())
			if attempt >= s.cfg.CheckpointRetries || !store.IsTransient(err) {
				break
			}
			select {
			case <-s.stopHeal:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if entry.gs != nil && entry.gs.Poisoned() {
			s.degrade(entry, fmt.Errorf("background checkpoint poisoned the WAL: %w", err))
		}
	}()
}

// queueContext bounds admission-queue waits per MaxQueueWait. The returned
// cancel must run once the request is admitted — the bound applies to
// queueing only, never to the solve itself.
func (s *Server) queueContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.MaxQueueWait <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.MaxQueueWait)
}

// shedOrCanceled classifies an admission-queue failure: the client gave up
// (503, their context died) versus the server shed the request because the
// queue wait exceeded MaxQueueWait (429 — the server is saturated and the
// client should back off and retry).
func (s *Server) shedOrCanceled(ctx context.Context, what string) *apiError {
	if ctx.Err() != nil {
		return apiErrorf(http.StatusServiceUnavailable, "request canceled while queued for %s", what)
	}
	s.metrics.sheds.Inc()
	return apiErrorf(http.StatusTooManyRequests, "overloaded: wait for %s exceeded %v; retry later", what, s.cfg.MaxQueueWait)
}

// Registry exposes the graph registry, e.g. for preloading at startup.
func (s *Server) Registry() *Registry { return s.registry }

// Sessions exposes the warm-session cache (tests, metrics).
func (s *Server) Sessions() *SessionCache { return s.sessions }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing left to do on error
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer probe: 200 only when every graph is
// fully writable. A degraded graph still serves reads (healthz stays 200,
// the process is alive), but routers that need full service can drain on
// the 503 here until self-heal completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	degraded := s.degradedGraphs()
	if len(degraded) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":          "degraded",
		"degraded_graphs": degraded,
	})
}

func (s *Server) degradedGraphs() []string {
	var names []string
	for _, info := range s.registry.List() {
		if info.Degraded {
			names = append(names, info.Name)
		}
	}
	return names
}

// handleStats answers GET /stats. Every event-driven number is read from
// the same obs instruments GET /metrics exposes — the JSON view is a
// projection of the metrics registry, never a second set of counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	batches, mutations, compactions := s.registry.MutationTotals()
	var persist *PersistStats
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		persist = &PersistStats{
			FsyncPolicy:        string(s.cfg.Store.Fsync()),
			WALAppends:         st.WALAppends,
			WALBytes:           st.WALBytes,
			WALFsyncs:          st.WALFsyncs,
			Checkpoints:        st.Checkpoints,
			CheckpointFailures: st.CheckpointFailures,
			RecoveredGraphs:    st.RecoveredGraphs,
			ReplayedBatches:    st.ReplayedBatches,
			TruncatedTails:     st.TruncatedTails,
			DegradedGraphs:     s.degradedGraphs(),
			DegradedEnters:     m.degradedEnters.Int(),
			SelfHeals:          m.selfHeals.Int(),
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Sheds:         m.sheds.Int(),
		Panics:        m.panics.Int(),
		Graphs:        s.registry.Len(),
		Sessions:      s.sessions.Stats(),
		Persist:       persist,
		InFlight:      m.inFlight.Int(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Mutations: MutationStats{
			Batches:          batches,
			Mutations:        mutations,
			Compactions:      compactions,
			SessionsAdvanced: m.sessionsAdvanced.Int(),
			SessionsReset:    m.sessionsReset.Int(),
			PoolsRepaired:    m.poolsRepaired.Int(),
			PoolsDropped:     m.poolsDropped.Int(),
			SamplesRedrawn:   m.samplesRedrawn.Int(),
			SamplesKept:      m.samplesKept.Int(),
		},
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

// maxBodyBytes caps request bodies: the graph-size/count/sample caps are
// pointless if a multi-gigabyte JSON body can OOM the decoder first. 8 MB
// still fits about a million explicit seed ids.
const maxBodyBytes = 8 << 20

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterGraphRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Fail fast on a bad name, a taken name, or a full registry before
	// paying for a graph build. Register re-checks authoritatively under
	// its own lock; these pre-checks only avoid building doomed graphs.
	if err := ValidateName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, taken := s.registry.Get(req.Name); taken {
		writeErr(w, http.StatusConflict, "graph %q: %v", req.Name, ErrDuplicate)
		return
	}
	if s.registry.Len() >= s.cfg.MaxGraphs {
		writeErr(w, http.StatusInsufficientStorage, "%v (limit %d)", ErrFull, s.cfg.MaxGraphs)
		return
	}
	// One build at a time: the caps bound each graph, this bounds how many
	// not-yet-registered graphs can exist transiently.
	select {
	case s.regSem <- struct{}{}:
		defer func() { <-s.regSem }()
	case <-r.Context().Done():
		writeErr(w, http.StatusServiceUnavailable, "request canceled while queued for registration")
		return
	}
	g, source, model, err := s.buildGraph(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.registry.Register(req.Name, g, source, model)
	switch {
	case errors.Is(err, ErrDuplicate):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrFull):
		writeErr(w, http.StatusInsufficientStorage, "%v", err)
		return
	case errors.Is(err, ErrPersist):
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, e.Info())
}

// handleDelete answers DELETE /graphs/{id}: the graph is unregistered, its
// warm sessions dropped (a future graph under the freed name must never
// inherit this one's solver state), and its durable on-disk state removed.
// In-flight solves holding the old entry finish on their immutable
// snapshots and release the memory.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	e, err := s.registry.Remove(name)
	if err != nil && e == nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	s.sessions.Drop(name)
	if err != nil {
		// The name is unregistered but disk state may linger; surface it.
		writeErr(w, http.StatusInternalServerError, "graph %q unregistered, but: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Graph: name, Deleted: true, Epoch: e.Dyn.Epoch()})
}

// buildGraph materializes the requested graph, a provenance string, and
// the normalized probability model it applied.
func (s *Server) buildGraph(req RegisterGraphRequest) (*graph.Graph, string, string, error) {
	sources := 0
	for _, set := range []bool{req.Path != "", req.Dataset != "", req.Generator != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", "", fmt.Errorf("set exactly one of path, dataset, generator")
	}

	var g *graph.Graph
	var source string
	generated := true
	switch {
	case req.Path != "":
		generated = false
		var err error
		g, source, err = s.loadGraphFile(req)
		if err != nil {
			return nil, "", "", err
		}
	case req.Dataset != "":
		spec, ok := datasets.ByName(req.Dataset)
		if !ok {
			return nil, "", "", fmt.Errorf("unknown dataset %q (have %v)", req.Dataset, datasets.Names())
		}
		scale := req.Scale
		if scale == 0 {
			scale = 0.02
		}
		if scale <= 0 || scale > 1 {
			return nil, "", "", fmt.Errorf("scale %v out of (0,1]", scale)
		}
		// The stand-in's size is known from the spec before any
		// allocation; hold it to the same cap as the generators.
		estN := float64(spec.FullN) * scale
		estM := float64(spec.FullM) * scale
		if !spec.Directed {
			estM *= 2 // undirected edges materialize in both directions
		}
		if estN > float64(s.cfg.MaxGraphSize) || estM > float64(s.cfg.MaxGraphSize) {
			return nil, "", "", fmt.Errorf("graph too large: %s at scale %g is ~%.0f vertices / ~%.0f edges, exceeding the server cap of %d",
				spec.Name, scale, estN, estM, s.cfg.MaxGraphSize)
		}
		g = spec.Generate(scale, req.Seed)
		source = fmt.Sprintf("dataset %s @ %g", spec.Name, scale)
	default:
		var err error
		g, source, err = generateGraph(req, s.cfg.MaxGraphSize)
		if err != nil {
			return nil, "", "", err
		}
	}

	model := req.ProbModel
	if model == "" {
		if generated {
			model = "TR"
		} else {
			model = "keep"
		}
	}
	model = strings.ToUpper(model)
	switch model {
	case "TR":
		g = graph.Trivalency.Assign(g, rng.New(req.Seed^0x7112))
		source += ", TR"
	case "WC":
		g = graph.WeightedCascade.Assign(g, nil)
		source += ", WC"
	case "KEEP":
		model = "keep"
	default:
		return nil, "", "", fmt.Errorf("unknown prob_model %q (want TR, WC or keep)", req.ProbModel)
	}
	return g, source, model, nil
}

// loadGraphFile reads an edge-list or binary graph file confined to the
// configured data directory.
func (s *Server) loadGraphFile(req RegisterGraphRequest) (*graph.Graph, string, error) {
	if s.cfg.DataDir == "" {
		return nil, "", fmt.Errorf("file loading disabled: server started without a data directory")
	}
	full := filepath.Join(s.cfg.DataDir, filepath.Clean("/"+req.Path))
	rel, err := filepath.Rel(s.cfg.DataDir, full)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil, "", fmt.Errorf("path %q escapes the data directory", req.Path)
	}
	if strings.HasSuffix(full, ".bin") {
		g, err := graph.ReadBinaryFile(full)
		if err != nil {
			return nil, "", fmt.Errorf("read %s: %v", rel, err)
		}
		return g, "file " + rel, nil
	}
	g, _, err := graph.ReadEdgeListFile(full, graph.ReadOptions{Undirected: req.Undirected})
	if err != nil {
		return nil, "", fmt.Errorf("read %s: %v", rel, err)
	}
	return g, "file " + rel, nil
}

func generateGraph(req RegisterGraphRequest, maxSize int) (*graph.Graph, string, error) {
	// Each branch re-states its generator's panic preconditions as 400s:
	// a remote request must never reach a datasets panic.
	var (
		estEdges float64
		source   string
		build    func(*rng.Source) *graph.Graph
	)
	undirected := !req.Directed
	switch req.Generator {
	case "preferential-attachment":
		if req.N < 2 {
			return nil, "", fmt.Errorf("preferential-attachment needs n >= 2")
		}
		epv := req.EdgesPerVertex
		if epv <= 0 {
			epv = 5
		}
		estEdges = float64(req.N) * epv
		source = fmt.Sprintf("preferential-attachment n=%d epv=%g", req.N, epv)
		build = func(r *rng.Source) *graph.Graph {
			return datasets.PreferentialAttachment(req.N, epv, req.Directed, r)
		}
	case "erdos-renyi":
		if req.N < 2 {
			return nil, "", fmt.Errorf("erdos-renyi needs n >= 2")
		}
		if req.M <= 0 {
			return nil, "", fmt.Errorf("erdos-renyi needs m > 0")
		}
		estEdges = float64(req.M)
		source = fmt.Sprintf("erdos-renyi n=%d m=%d", req.N, req.M)
		build = func(r *rng.Source) *graph.Graph {
			return datasets.ErdosRenyi(req.N, req.M, req.Directed, r)
		}
	case "watts-strogatz":
		k := req.K
		if k <= 0 {
			k = 4
		}
		if req.N < 2*k+1 {
			return nil, "", fmt.Errorf("watts-strogatz needs n > 2k (n=%d, k=%d)", req.N, k)
		}
		if req.Directed {
			return nil, "", fmt.Errorf("watts-strogatz graphs are undirected; omit directed")
		}
		undirected = true
		estEdges = float64(req.N) * float64(k)
		source = fmt.Sprintf("watts-strogatz n=%d k=%d beta=%g", req.N, k, req.Beta)
		build = func(r *rng.Source) *graph.Graph {
			return datasets.WattsStrogatz(req.N, k, req.Beta, r)
		}
	default:
		return nil, "", fmt.Errorf("unknown generator %q (want preferential-attachment, erdos-renyi or watts-strogatz)", req.Generator)
	}
	if undirected {
		estEdges *= 2 // undirected edges materialize in both directions
	}
	// Size-check from the request alone, before any allocation.
	if float64(req.N) > float64(maxSize) || estEdges > float64(maxSize) {
		return nil, "", fmt.Errorf("graph too large: %d vertices / ~%.0f edges exceed the server cap of %d", req.N, estEdges, maxSize)
	}
	return build(rng.New(req.Seed)), source, nil
}

// handleMutate answers POST /graphs/{id}/mutate: an NDJSON stream of
// mutation operations committed as one atomic batch. On success the graph's
// epoch advances and any warm sessions for the graph are eagerly migrated —
// their cached sample pools repaired in place rather than rebuilt — so the
// next solve after a mutation is as warm as the one before it. The response
// reports the new epoch, per-operation counts, and the repair statistics.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	mutateStart := time.Now()
	defer func() { s.noteMutateSLO(r.Context(), entry.Name, time.Since(mutateStart)) }()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var muts []dynamic.Mutation
	for {
		var m dynamic.Mutation
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			writeErr(w, http.StatusBadRequest, "mutation %d: %v", len(muts), err)
			return
		}
		muts = append(muts, m)
		if len(muts) > s.cfg.MaxMutations {
			writeErr(w, http.StatusBadRequest, "batch exceeds the server cap of %d mutations", s.cfg.MaxMutations)
			return
		}
	}
	if len(muts) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch: at least one mutation line is required")
		return
	}
	// Write-through: the batch is committed in memory AND appended to the
	// write-ahead log (fsynced per policy) before the 200 goes out. A
	// persistence failure flips the graph into degraded read-only mode:
	// the in-memory commit already happened and the self-heal checkpoint
	// will carry it into the next durable snapshot, but the server could
	// not promise durability at ack time, so the client gets a 503 +
	// Retry-After rather than a 200. Further mutations are rejected with
	// the same 503 until self-heal restores writability. DisableDegraded
	// keeps the legacy plain 500 instead.
	commitStart := time.Now()
	info, err := entry.Commit(r.Context(), muts)
	s.metrics.mutateSeconds.Observe(time.Since(commitStart).Seconds())
	if errors.Is(err, ErrDegraded) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if errors.Is(err, ErrPersist) {
		if s.cfg.DisableDegraded {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.degrade(entry, err)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v (graph is now degraded read-only while a self-heal checkpoint runs)", err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Checkpoint in the background once the WAL outgrows its threshold:
	// snapshot the current epoch, rotate the log, truncate the prefix the
	// snapshot covers. At most one checkpoint per graph runs at a time
	// (Checkpoint self-limits); the mutate path never waits on it.
	if entry.NeedsCheckpoint() {
		s.backgroundCheckpoint(context.WithoutCancel(r.Context()), entry)
	}

	// Eagerly migrate the graph's warm sessions so the repair cost is paid
	// here, once, instead of on the first solve of every session. Repair is
	// CPU work (parallel redraw of dirty samples), so it holds a slot of
	// the bounded solve pool like any other heavy operation — concurrent
	// mutate requests cannot multiply CPU past MaxConcurrent. Sessions busy
	// past the client's patience are skipped — the solve path migrates
	// lazily on its next request.
	// Lock order matches the solve path — session first, then solve slot —
	// so a mutate migration can never hold the slot a session-holding solve
	// is waiting for.
	// The waits run under the queue bound like solve admission, but a
	// timeout here is not a shed: the batch is already committed and acked
	// below, so an overloaded pool just skips the eager migration.
	var rep RepairStats
	queueCtx, cancelQueue := s.queueContext(r.Context())
	for _, diffusion := range []core.Diffusion{core.DiffusionIC, core.DiffusionLT} {
		sess, ok := s.sessions.Lookup(SessionKey{Graph: entry.Name, Diffusion: diffusion})
		if !ok {
			continue
		}
		lh, err := sess.Acquire(queueCtx)
		if err != nil {
			break
		}
		select {
		case s.sem <- struct{}{}:
			s.migrateSession(lh, entry, &rep)
			<-s.sem
		case <-queueCtx.Done():
		}
		lh.Release()
	}
	cancelQueue()

	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:           entry.Name,
		Epoch:           info.Epoch,
		Applied:         info.Applied,
		EdgesAdded:      info.EdgesAdded,
		EdgesRemoved:    info.EdgesRemoved,
		ProbsChanged:    info.ProbsChanged,
		VerticesAdded:   info.VerticesAdded,
		VerticesRemoved: info.VerticesRemoved,
		ChangedSources:  len(info.ChangedSources),
		Compacted:       info.Compacted,
		Vertices:        info.N,
		Edges:           info.M,
		Repair:          rep,
	})
}

// migrateSession moves an acquired session to the entry's current epoch:
// incremental Advance when the changelog still reaches the session's epoch,
// full Reset otherwise. The current snapshot is re-read under the session
// lock — epochs are monotone and sessions only ever migrate forward, so a
// request that raced past a concurrent commit cannot drag a session back to
// the older snapshot it started from. Folds the outcome into rep and the
// server's cumulative counters.
func (s *Server) migrateSession(lh *core.LockedSession, entry *GraphEntry, rep *RepairStats) {
	g, epoch := entry.Current()
	if lh.Epoch() >= epoch {
		return
	}
	start := time.Now()
	defer func() { s.metrics.repairSeconds.Observe(time.Since(start).Seconds()) }()
	sources, targets, ok := entry.Dyn.ChangedSince(lh.Epoch())
	if !ok {
		lh.Reset(g, epoch)
		rep.SessionsReset++
		s.metrics.sessionsReset.Inc()
		return
	}
	st := lh.Advance(g, epoch, sources, targets)
	rep.SessionsAdvanced++
	rep.PoolsRepaired += st.PoolsRepaired
	rep.PoolsDropped += st.PoolsDropped
	rep.SamplesRedrawn += st.SamplesRedrawn
	rep.SamplesKept += st.SamplesKept
	s.metrics.sessionsAdvanced.Inc()
	s.metrics.poolsRepaired.Add(float64(st.PoolsRepaired))
	s.metrics.poolsDropped.Add(float64(st.PoolsDropped))
	s.metrics.samplesRedrawn.Add(float64(st.SamplesRedrawn))
	s.metrics.samplesKept.Add(float64(st.SamplesKept))
}

var validAlgorithms = map[core.Algorithm]bool{
	core.Rand:           true,
	core.OutDegree:      true,
	core.BaselineGreedy: true,
	core.AdvancedGreedy: true,
	core.GreedyReplace:  true,
}

// apiError carries an HTTP status code with its message through the solve
// path, so the same validation and solve logic serves the single-solve
// endpoint (status → response code) and the batch stream (status folded
// into the per-item error line).
type apiError struct {
	code int
	msg  string
}

func apiErrorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeAPIErr sends an apiError, attaching Retry-After to the retryable
// statuses (shed 429s and degraded/overload 503s) so well-behaved clients
// back off instead of hammering.
func writeAPIErr(w http.ResponseWriter, aerr *apiError) {
	if aerr.code == http.StatusTooManyRequests || aerr.code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, aerr.code, "%s", aerr.msg)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, aerr := s.solveOne(r.Context(), entry, &req)
	if aerr != nil {
		writeAPIErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSolveBatch answers POST /graphs/{id}/solve-batch: every item runs
// through the same admission path as a single solve (session queue first,
// then a slot in the bounded solve pool), sharing the graph's warm
// sessions, and results stream back as NDJSON lines in completion order.
// Streaming means the client sees item results while later items still
// run, and the response cannot carry a late status code — per-item
// failures travel in the item line's "error" field instead.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	var req BatchSolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch: items is required")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeErr(w, http.StatusBadRequest, "batch of %d items exceeds the server cap of %d", len(req.Items), s.cfg.MaxBatchItems)
		return
	}

	ctx := r.Context()
	workers := min(len(req.Items), s.cfg.MaxConcurrent)
	idxCh := make(chan int)
	results := make(chan BatchItemResult)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				item := BatchItemResult{Index: idx}
				itemStart := time.Now()
				resp, aerr := s.solveOne(ctx, entry, &req.Items[idx])
				s.metrics.batchItems.Observe(time.Since(itemStart).Seconds())
				if aerr != nil {
					item.Error = aerr.msg
				} else {
					item.Result = resp
				}
				results <- item
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for i := range req.Items {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				// Client gone: stop feeding unstarted items entirely.
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // no indent: one result per line
	for item := range results {
		// Check the request context between items: once the client
		// disconnects, nothing more is written — the channel is only
		// drained so the workers (whose in-flight solves are already being
		// canceled through ctx) can exit instead of blocking on send.
		if ctx.Err() != nil {
			continue
		}
		_ = enc.Encode(item)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// maxRoundSpans caps the per-round children of one solve trace: a
// b=10000 solve must not turn every trace into a ten-thousand-node tree.
// Truncation is recorded as a "rounds_truncated" attr on the solve span.
const maxRoundSpans = 128

// solveOne validates one solve request and runs it against entry with
// warm-session reuse: the shared core of the solve and solve-batch
// endpoints. ctx queues and cancels exactly like a single request's.
//
// When tracing is on (ring enabled, or the request asked for an inline
// trace) the solve's phases are recorded as spans: queue.session →
// queue.slot → migrate → eval.before → solve (with per-round children) →
// eval.after. The finished trace lands in the ring even when the solve
// fails — shed and canceled requests are exactly the ones worth debugging.
func (s *Server) solveOne(ctx context.Context, entry *GraphEntry, req *SolveRequest) (resp *SolveResponse, aerr *apiError) {
	t0 := time.Now()
	cost := &diag.SolveCost{}
	var tr *obs.Trace
	// An armed solve SLO forces trace recording even with the ring off:
	// when the watchdog fires, the bundle must contain the offending trace.
	if req.Trace || s.traces.Enabled() || (s.diag != nil && s.cfg.SLOSolve > 0) {
		tr = obs.NewTrace("solve", entry.Name, RequestID(ctx))
	}
	defer func() {
		total := time.Since(t0)
		cost.TotalNS = total.Nanoseconds()
		if resp != nil {
			resp.Cost = cost
			s.observeCost(cost)
		}
		var out *obs.TraceOut
		if tr != nil {
			if aerr != nil {
				tr.SetAttr("error", aerr.msg)
				tr.SetAttr("status", aerr.code)
			}
			// Attach a value copy: the trace may be marshaled from the
			// ring by a concurrent scrape the moment Add returns.
			tr.SetAttr("cost", *cost)
			out = tr.Finish()
			s.traces.Add(out)
			if req.Trace && resp != nil {
				resp.Trace = out
			}
		}
		s.noteSolveSLO(ctx, entry.Name, total, out, aerr)
	}()
	if req.Budget < 0 {
		return nil, apiErrorf(http.StatusBadRequest, "negative budget %d", req.Budget)
	}
	if req.Workers < 0 {
		return nil, apiErrorf(http.StatusBadRequest, "negative workers %d", req.Workers)
	}
	alg := core.GreedyReplace
	if req.Algorithm != "" {
		alg = core.Algorithm(req.Algorithm)
		if !validAlgorithms[alg] {
			return nil, apiErrorf(http.StatusBadRequest, "unknown algorithm %q", req.Algorithm)
		}
	}
	var diffusion core.Diffusion
	switch strings.ToUpper(req.Model) {
	case "", "IC":
		diffusion = core.DiffusionIC
	case "LT":
		diffusion = core.DiffusionLT
	default:
		return nil, apiErrorf(http.StatusBadRequest, "unknown model %q (want IC or LT)", req.Model)
	}

	g, epoch := entry.Current()
	seeds, err := resolveSeeds(g, req)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "%v", err)
	}

	key := SessionKey{Graph: entry.Name, Diffusion: diffusion}
	sess, hit := s.sessions.Acquire(key, g, epoch)

	// Both admission waits run under queueCtx so a saturated server sheds
	// queued work (429) after MaxQueueWait instead of accumulating an
	// unbounded backlog of parked requests.
	queueCtx, cancelQueue := s.queueContext(ctx)
	defer cancelQueue()

	// Queue for the (graph, model) session first: sessions serialize their
	// callers, and the wait costs no CPU, so it must not occupy a solve
	// slot — otherwise one hot graph's queue would hold every slot and
	// starve requests for all other graphs (head-of-line blocking).
	sessionQueued := time.Now()
	sessionSpan := tr.StartSpan("queue.session")
	lh, err := sess.Acquire(queueCtx)
	sessionSpan.End()
	cost.QueueSessionNS = time.Since(sessionQueued).Nanoseconds()
	s.metrics.queueWait.With("session").Observe(time.Since(sessionQueued).Seconds())
	if err != nil {
		return nil, s.shedOrCanceled(ctx, "the graph session")
	}
	defer lh.Release()

	// CPU admission: the bounded pool of actually-running solves. Safe to
	// wait while holding the session: slot holders are running, never
	// queued on a session themselves.
	slotQueued := time.Now()
	slotSpan := tr.StartSpan("queue.slot")
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-queueCtx.Done():
		slotSpan.End()
		cost.QueueSlotNS = time.Since(slotQueued).Nanoseconds()
		s.metrics.queueWait.With("slot").Observe(time.Since(slotQueued).Seconds())
		return nil, s.shedOrCanceled(ctx, "a solve slot")
	}
	slotSpan.End()
	cost.QueueSlotNS = time.Since(slotQueued).Nanoseconds()
	s.metrics.queueWait.With("slot").Observe(time.Since(slotQueued).Seconds())
	cancelQueue() // admitted; the queue bound must not cut the solve short
	s.metrics.inFlight.Inc()
	defer s.metrics.inFlight.Dec()

	// A session behind the graph's epoch migrates before solving — inside
	// the admission slot, since pool repair is CPU work like the solve
	// itself. Warm pools are repaired against the mutation changelog, so
	// the epochs a cache key spans never mix: every solve runs on exactly
	// the snapshot it reports.
	if lh.Epoch() != epoch {
		var rep RepairStats
		migrateStart := time.Now()
		migrateSpan := tr.StartSpan("migrate")
		s.migrateSession(lh, entry, &rep)
		migrateSpan.SetAttr("sessions_advanced", rep.SessionsAdvanced)
		migrateSpan.SetAttr("sessions_reset", rep.SessionsReset)
		migrateSpan.SetAttr("pools_repaired", rep.PoolsRepaired)
		migrateSpan.SetAttr("samples_redrawn", rep.SamplesRedrawn)
		migrateSpan.SetAttr("samples_kept", rep.SamplesKept)
		migrateSpan.End()
		cost.MigrateNS = time.Since(migrateStart).Nanoseconds()
		cost.SamplesRedrawn = rep.SamplesRedrawn
		cost.SamplesKept = rep.SamplesKept
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	theta := min(orDefault(req.Theta, s.cfg.DefaultTheta), s.cfg.MaxTheta)
	mcs := min(orDefault(req.MCSRounds, s.cfg.DefaultMCSRounds), s.cfg.MaxEvalRounds)
	workers := min(req.Workers, runtime.GOMAXPROCS(0))
	if err := checkPoolEncoding(req.PoolEncoding); err != nil {
		return nil, err
	}
	opt := core.Options{
		Theta:        theta,
		MCSRounds:    mcs,
		Seed:         req.Seed,
		Workers:      workers,
		Timeout:      timeout,
		ReuseSamples: req.ReuseSamples,
	}
	// Per-round observer: metrics always, spans when tracing. The hook is
	// read-only — core guarantees the selection is bit-identical with or
	// without it (asserted by TestTracedSolveBitIdentity).
	var solveSpan *obs.Span // set right before lh.Solve; rounds attach to it
	m := s.metrics
	opt.OnRound = func(ri core.RoundInfo) {
		cost.AddRound(ri.Duration, ri.SamplesDirty)
		m.roundSeconds.Observe(ri.Duration.Seconds())
		m.rounds.With(ri.Phase).Inc()
		m.dirtySamples.Add(float64(ri.SamplesDirty))
		if solveSpan != nil && solveSpan.ChildCount() < maxRoundSpans {
			sp := solveSpan.AddTimedChild("round", ri.Duration)
			sp.SetAttr("round", ri.Round)
			sp.SetAttr("phase", ri.Phase)
			sp.SetAttr("chosen", int(ri.Chosen))
			sp.SetAttr("dirty_samples", ri.SamplesDirty)
		}
	}

	evalRounds := req.EvalRounds
	if evalRounds == 0 {
		evalRounds = s.cfg.DefaultEvalRounds
	}
	if evalRounds > s.cfg.MaxEvalRounds {
		evalRounds = s.cfg.MaxEvalRounds
	}

	resp = &SolveResponse{
		Graph:           entry.Name,
		Algorithm:       string(alg),
		Model:           diffusionName(diffusion),
		Seeds:           verticesToInts(seeds),
		Theta:           theta,
		MCSRounds:       mcs,
		Workers:         workers,
		SessionCacheHit: hit,
		RequestID:       RequestID(ctx),
	}

	var before float64
	if evalRounds > 0 {
		evalStart := time.Now()
		evalSpan := tr.StartSpan("eval.before")
		before, err = evaluateSpread(ctx, lh, seeds, nil, evalRounds, opt)
		evalSpan.End()
		cost.EvalNS += time.Since(evalStart).Nanoseconds()
		if err != nil {
			return nil, apiErrorf(evalStatus(ctx), "spread evaluation: %v", err)
		}
	}

	solveSpan = tr.StartSpan("solve")
	res, err := lh.Solve(ctx, seeds, req.Budget, alg, opt)
	if solveSpan != nil {
		solveSpan.SetAttr("algorithm", string(alg))
		if res.Blockers != nil && len(res.Blockers) > maxRoundSpans {
			solveSpan.SetAttr("rounds_truncated", true)
		}
		solveSpan.End()
		solveSpan = nil // rounds of a later retry must not attach to an ended span
	}
	if err != nil {
		return nil, apiErrorf(evalStatus(ctx), "solve: %v", err)
	}
	m.solveSeconds.
		With(resp.Model, warmLabel(hit), encodingLabel(req.ReuseSamples)).
		Observe(res.Runtime.Seconds())
	cost.SolveNS = res.Runtime.Nanoseconds()
	cost.SamplesDrawn = res.SampledGraphs
	cost.MCSSimulations = res.MCSSimulations
	cost.PoolBytes, _, _ = sess.PoolStats()
	resp.Blockers = verticesToInts(res.Blockers)
	resp.SampledGraphs = res.SampledGraphs
	resp.MCSSimulations = res.MCSSimulations
	resp.SolveMS = float64(res.Runtime) / float64(time.Millisecond)
	resp.TimedOut = res.TimedOut
	resp.Canceled = res.Canceled

	if evalRounds > 0 && !resp.Canceled {
		evalStart := time.Now()
		evalSpan := tr.StartSpan("eval.after")
		after, err := evaluateSpread(ctx, lh, seeds, res.Blockers, evalRounds, opt)
		evalSpan.End()
		cost.EvalNS += time.Since(evalStart).Nanoseconds()
		if err != nil {
			return nil, apiErrorf(evalStatus(ctx), "spread evaluation: %v", err)
		}
		resp.SpreadBefore = &before
		resp.SpreadAfter = &after
		if before > 0 {
			pct := 100 * (before - after) / before
			resp.ReductionPct = &pct
		}
	}
	resp.TotalMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return resp, nil
}

// evalChunk is the largest number of Monte-Carlo rounds run between
// context checks: one EvaluateSpread call is not cancelable, so the
// before/after spread reports run in chunks to stop burning CPU (and
// holding the worker slot and session) once the client is gone.
const evalChunk = 2000

// evaluateSpread is EvaluateSpread on an acquired session with
// cancellation, averaging independent chunks (each on its own rng stream)
// into one estimate.
func evaluateSpread(ctx context.Context, h *core.LockedSession, seeds, blockers []graph.V, rounds int, opt core.Options) (float64, error) {
	var total float64
	for done := 0; done < rounds; done += evalChunk {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n := min(rounds-done, evalChunk)
		copt := opt
		copt.Seed = opt.Seed + uint64(done)*0x9e3779b97f4a7c15
		v, err := h.EvaluateSpread(seeds, blockers, n, copt)
		if err != nil {
			return 0, err
		}
		total += v * float64(n)
	}
	return total / float64(rounds), nil
}

// evalStatus maps a solve or evaluation failure to a status: a dead or
// timed-out client gets a best-effort 503, a bad problem a 400.
func evalStatus(ctx context.Context) int {
	if ctx.Err() != nil {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// orDefault substitutes def for unset (non-positive) request values.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// resolveSeeds validates explicit seeds or draws the requested number of
// random ones.
func resolveSeeds(g *graph.Graph, req *SolveRequest) ([]graph.V, error) {
	if len(req.Seeds) > 0 {
		seeds := make([]graph.V, len(req.Seeds))
		for i, id := range req.Seeds {
			if id < 0 || id >= g.N() {
				return nil, fmt.Errorf("seed %d out of range [0,%d)", id, g.N())
			}
			seeds[i] = graph.V(id)
		}
		return seeds, nil
	}
	count := req.NumSeeds
	if count <= 0 {
		count = 1
	}
	return datasets.RandomSeeds(g, count, true, rng.New(req.Seed^0x5eed))
}

func diffusionName(d core.Diffusion) string {
	if d == core.DiffusionLT {
		return "LT"
	}
	return "IC"
}

// checkPoolEncoding validates the request's pool_encoding field. Every
// value it accepts selects the same (flat) pool layout; see
// SolveRequest.PoolEncoding.
func checkPoolEncoding(s string) *apiError {
	switch s {
	case "", "flat", "compressed":
		return nil
	default:
		return apiErrorf(http.StatusBadRequest, "unknown pool_encoding %q (want \"flat\" or \"compressed\")", s)
	}
}

func verticesToInts(vs []graph.V) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
