// Command imind is the influence-minimization daemon: it keeps registered
// graphs and warm solver sessions in memory and serves blocking requests
// over HTTP/JSON, so repeated solves on a hot graph skip all setup cost
// (graph load, multi-seed unification, sampler and estimator scratch).
//
// With -data-dir it is also durable: registrations and mutation batches
// are write-ahead logged (fsync policy per -fsync) and periodically
// checkpointed, so a restarted daemon recovers every graph to its exact
// pre-crash epoch instead of starting empty.
//
// Endpoints:
//
//	POST   /graphs                  register a graph (file, dataset stand-in, or generator)
//	GET    /graphs                  list registered graphs
//	GET    /graphs/{id}             one graph's info (vertices, edges, epoch, durability)
//	DELETE /graphs/{id}             unregister a graph and delete its durable state
//	POST   /graphs/{id}/solve       select blockers: {seeds, budget, algorithm, model, theta, ...}
//	POST   /graphs/{id}/solve-batch many solves against one graph, streamed as NDJSON
//	POST   /graphs/{id}/mutate      commit an NDJSON batch of topology mutations (new epoch)
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness: 503 while any graph is degraded (read-only, self-healing)
//	GET    /stats                   registry size, session-cache, mutation/repair and durability counters
//	GET    /metrics                 Prometheus text exposition of the same instruments /stats reads
//	GET    /debug/traces            ring of recent solve traces (?min_duration_ms=, ?route= filters)
//	GET    /debug/bundles           diagnostic bundles the flight recorder captured (-diag-dir)
//	GET    /debug/bundles/{id}      one bundle: offending trace, trace ring, metrics, profiles
//	GET    /version                 module version, VCS revision, go version
//
// Example:
//
//	imind -addr :8080 -data ./graphs -data-dir ./state -preload Wiki-Vote,Facebook -scale 0.05
//	curl -s localhost:8080/graphs
//	curl -s -X POST localhost:8080/graphs/Wiki-Vote/solve \
//	     -d '{"num_seeds": 10, "budget": 20, "algorithm": "greedy-replace", "seed": 1}'
//
// See README.md for the full API reference and docs/OBSERVABILITY.md for
// the metric catalog, trace span glossary, and request-ID semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	imin "github.com/imin-dev/imin"
	"github.com/imin-dev/imin/internal/obs"
	"github.com/imin-dev/imin/internal/service"
	"github.com/imin-dev/imin/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data", "", "directory graph files may be loaded from (empty disables file loading)")
		stateDir      = flag.String("data-dir", "", "directory for durable graph state (WAL + snapshots); empty runs in-memory only")
		fsyncMode     = flag.String("fsync", "interval", "WAL fsync policy with -data-dir: always, interval or none")
		fsyncEvery    = flag.Duration("fsync-interval", 100*time.Millisecond, "background WAL fsync period under -fsync interval")
		ckptWALMB     = flag.Int("checkpoint-wal-mb", 16, "WAL megabytes per graph that trigger a background checkpoint")
		maxConc       = flag.Int("max-concurrent", 0, "max concurrent solves (0 = GOMAXPROCS)")
		maxSessions   = flag.Int("max-sessions", 8, "warm solver sessions kept in the LRU cache")
		workers       = flag.Int("workers", 0, "parallel workers per solve (0 = all cores)")
		timeout       = flag.Duration("timeout", 0, "default per-solve timeout (0 = none; requests may set timeout_ms)")
		theta         = flag.Int("theta", 10000, "default sampled graphs per estimation round")
		evalRounds    = flag.Int("eval", 2000, "default Monte-Carlo rounds for spread reports")
		preload       = flag.String("preload", "", "comma-separated dataset stand-ins to register at startup")
		scale         = flag.Float64("scale", 0.02, "scale for -preload datasets")
		rngSeed       = flag.Uint64("rng", 1, "seed for -preload generation")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address for live profiling (empty disables)")
		mutexFraction = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction for the -pprof mutex profile (0 disables)")
		blockRate     = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate in ns for the -pprof block profile (0 disables)")
		traceRing     = flag.Int("trace-ring", 256, "solve traces kept for GET /debug/traces (negative disables tracing entirely)")
		logFormat     = flag.String("log-format", "text", "structured log output: text or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (per-request lines log at debug)")
		shutdownTO    = flag.Duration("shutdown-timeout", 30*time.Second, "how long graceful shutdown waits for in-flight solves to drain before closing their connections")
		maxQueueWait  = flag.Duration("max-queue-wait", 5*time.Second, "max time a request may wait in an admission queue before being shed with 429 (0 = unbounded)")
		degradedMode  = flag.Bool("degraded-mode", true, "serve reads and shed writes (503) when a graph's durable log fails, self-healing in the background; false restores plain 500s")
		ckptRetries   = flag.Int("checkpoint-retries", 3, "retries for background checkpoints that fail transiently (ENOSPC etc)")
		ckptBackoff   = flag.Duration("checkpoint-retry-backoff", 250*time.Millisecond, "initial backoff between background checkpoint retries (doubles per attempt)")
		sloSolveMS    = flag.Int("slo-solve-ms", 0, "solve latency objective in ms; breaches log, count imind_slo_breaches_total and capture a diagnostic bundle (0 disables)")
		sloMutateMS   = flag.Int("slo-mutate-ms", 0, "mutate latency objective in ms (0 disables)")
		diagDir       = flag.String("diag-dir", "", "directory for SLO/degraded-mode diagnostic bundles served at GET /debug/bundles (empty disables the flight recorder)")
		diagMax       = flag.Int("diag-max-bundles", 16, "diagnostic bundles retained in -diag-dir before the oldest are deleted")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	// One registry serves the whole process: the store's WAL/checkpoint
	// histograms and the service's instruments land on the same
	// GET /metrics scrape.
	metrics := obs.NewRegistry()

	var st *store.Store
	if *stateDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		st, err = store.Open(*stateDir, store.Config{
			Fsync:              policy,
			FsyncInterval:      *fsyncEvery,
			CheckpointWALBytes: int64(*ckptWALMB) << 20,
			Metrics:            metrics,
			Logger:             logger,
		})
		if err != nil {
			fatal(err)
		}
		logger.Info("durable store opened", "dir", *stateDir, "fsync", string(policy))
	}

	srv := service.New(service.Config{
		MaxConcurrent:          *maxConc,
		MaxSessions:            *maxSessions,
		SolveWorkers:           *workers,
		DefaultTimeout:         *timeout,
		DefaultTheta:           *theta,
		DefaultEvalRounds:      *evalRounds,
		DataDir:                *dataDir,
		Store:                  st,
		MaxQueueWait:           *maxQueueWait,
		DisableDegraded:        !*degradedMode,
		CheckpointRetries:      *ckptRetries,
		CheckpointRetryBackoff: *ckptBackoff,
		Metrics:                metrics,
		Logger:                 logger,
		TraceRing:              *traceRing,
		SLOSolve:               time.Duration(*sloSolveMS) * time.Millisecond,
		SLOMutate:              time.Duration(*sloMutateMS) * time.Millisecond,
		DiagDir:                *diagDir,
		DiagMaxBundles:         *diagMax,
	})

	// Recovery runs before preloading: a preload name that already exists
	// durably is simply skipped (its recovered state wins — it may carry
	// mutations the generator cannot reproduce).
	if st != nil {
		recs, err := srv.Recover()
		if err != nil {
			fatal(fmt.Errorf("recovering durable graphs: %w", err))
		}
		for _, rec := range recs {
			logger.Info("recovered graph",
				"graph", rec.Name, "epoch", rec.Epoch(),
				"snapshot_epoch", rec.SnapshotEpoch,
				"replayed_batches", rec.ReplayedBatches,
				"truncated_tail", rec.TruncatedTail)
		}
	}

	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := srv.Registry().Get(name); ok {
				logger.Info("preload skipped: already recovered", "graph", name)
				continue
			}
			g, err := imin.GenerateDataset(name, *scale, *rngSeed)
			if err != nil {
				fatal(err)
			}
			g = imin.AssignProbabilities(g, imin.Trivalency, *rngSeed^0x7112)
			if _, err := srv.Registry().Register(name, g, fmt.Sprintf("preload %s @ %g, TR", name, *scale), "TR"); err != nil {
				fatal(err)
			}
			logger.Info("preloaded graph", "graph", name, "vertices", g.N(), "edges", g.M())
		}
	}

	// The profiler gets its own listener and its own explicit mux, so the
	// profiling endpoints are never exposed on the service address and the
	// global DefaultServeMux stays empty. The mutex/block profiles are
	// useless at their zero sampling defaults — the companion flags turn
	// them on for contention investigations.
	if *pprofAddr != "" {
		runtime.SetMutexProfileFraction(*mutexFraction)
		runtime.SetBlockProfileRate(*blockRate)
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr,
				"mutex_profile_fraction", *mutexFraction, "block_profile_rate", *blockRate)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				logger.Error("pprof server failed", "error", err.Error())
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight solves.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("imind listening", "addr", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	// Drain in-flight solves for up to -shutdown-timeout: Shutdown stops
	// accepting work immediately but lets running requests finish; on
	// expiry the remaining connections are closed and their solves unwind
	// through context cancellation. The durable store is flushed strictly
	// AFTER the drain completes (or its survivors are cut off): every
	// handler that acknowledged a mutation has appended it by then, so the
	// final WAL fsync and checkpoint below cover all acknowledged batches —
	// -shutdown-timeout can expire without losing any of them.
	logger.Info("shutting down", "drain_timeout", *shutdownTO)
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			flushStore(logger, srv, st)
			fatal(err)
		}
		logger.Warn("shutdown timeout expired; closing remaining connections", "timeout", *shutdownTO)
		if err := httpSrv.Close(); err != nil {
			flushStore(logger, srv, st)
			fatal(err)
		}
	}
	flushStore(logger, srv, st)
}

// buildLogger constructs the process logger from -log-format/-log-level.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// flushStore fsyncs WALs and takes final checkpoints after the HTTP drain.
// Failures are logged, not fatal'd: at this point exiting is the only
// remaining action either way, and recovery replays the WAL regardless.
func flushStore(logger *slog.Logger, srv *service.Server, st *store.Store) {
	if st == nil {
		return
	}
	if err := srv.Close(); err != nil {
		logger.Error("flushing durable store failed", "error", err.Error())
		return
	}
	logger.Info("durable store flushed (final checkpoints written)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imind:", err)
	os.Exit(1)
}
