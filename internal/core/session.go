package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Session keeps the expensive per-problem solver state warm across Solve
// calls on one graph under one diffusion model: the multi-seed unified
// instance (UnifySeeds copies the whole graph), the live-edge sampler, and
// the Algorithm 2 estimator with its per-worker scratch (several O(n)
// arrays per worker). A cold Solve pays all of that on every call; a warm
// Session call with the same seed set skips straight to the greedy rounds.
//
// A Session is bound to (graph, diffusion, dominator algorithm) at
// construction, plus a default worker count: Solve overrides the diffusion
// and dominator Options fields with the session's own so cached scratch
// always matches the run, while Options.Workers is honored per call (zero
// falls back to the session default). Cached estimators are re-fanned with
// SetWorkers instead of being rebuilt — pool content is worker-independent
// (see NewSamplePool), so a warm session serves requests at any worker
// count from the same cached samples, and ReuseSamples results are
// bit-identical at every worker count. Solve serializes callers internally
// — the estimator admits one DecreaseES stream at a time — so a Session is
// safe for concurrent use, at the price of queueing (the wait is
// context-aware: a canceled caller stops queueing immediately); run
// independent graphs on independent Sessions.
//
// Determinism is preserved: the cached estimator carries no randomness of
// its own (each round's rng is split from the per-call Options.Seed), so a
// warm Solve returns exactly the blockers a cold Solve with equal
// (Seed, Theta) and the session's workers/diffusion/domAlgo would.
type Session struct {
	g         *graph.Graph
	diffusion Diffusion
	domAlgo   DomAlgo
	workers   int
	epoch     uint64 // graph epoch the cached state reflects; guarded by lk

	lk    chan struct{} // cap-1 context-aware mutex over the fields below
	insts []*sessionInstance
	tick  int64
	stats SessionStats

	// Pool counters are atomic so the serving layer's /stats can read them
	// without queueing behind an in-flight solve on the session lock.
	poolBytes  atomic.Int64
	poolBuilds atomic.Int64
	poolReuses atomic.Int64
}

// maxSessionInstances bounds the per-seed-set cache inside one session, so
// a few clients interleaving different seed sets on one hot graph don't
// evict each other's prepared state on every request (instances cost a
// whole-graph copy for multi-seed problems plus per-worker estimator
// scratch, which is also why the bound is small).
const maxSessionInstances = 4

// maxSessionPools bounds the per-instance cache of ReuseSamples pools. A
// pool costs θ × (average sample size) memory — usually the largest object
// a session owns — so the bound is even smaller than the instance bound:
// one hot (seed, θ) pair plus one alternate.
const maxSessionPools = 2

// sessionInstance is the prepared state for one seed set: the unified
// instance, the estimator bound to its sampler, and the ReuseSamples pools
// drawn for it so far.
type sessionInstance struct {
	key   string
	seeds []graph.V // the exact seed sequence, for re-preparing after Advance
	in    *instance
	est   *Estimator
	used  int64 // LRU tick, guarded by the session lock
	pools []*sessionPool
}

// sessionPool is one cached ReuseSamples pool with its incremental
// estimator. The pool content is fully determined by (Options.Seed,
// Options.Theta) plus the session-fixed sampler and worker count, so those
// two form the cache key. The estimator is cached along with the pool:
// its delta-maintained accumulator survives across solves, so a repeat
// solve only reprocesses samples touched by the previous run's blockers.
type sessionPool struct {
	seed  uint64
	theta int
	est   *IncrementalPooledEstimator
	used  int64 // LRU tick, guarded by the session lock
	bytes int64 // est.MemoryBytes() as last folded into the poolBytes gauge
}

// SessionStats counts how often the cached state could be reused.
type SessionStats struct {
	// Solves is the number of Solve calls answered.
	Solves int64
	// Reuses counts Solve/EvaluateSpread calls that found their seed set's
	// prepared instance and estimator in the session's cache; Rebuilds
	// counts calls that had to build them (first sight of a seed set, or
	// re-entry after eviction past maxSessionInstances).
	Reuses   int64
	Rebuilds int64
	// PoolBuilds and PoolReuses count ReuseSamples solves that had to draw
	// their θ-sample pool versus ones that found it cached under the same
	// (seed set, Options.Seed, Options.Theta); PoolBytes is the resident
	// footprint of all cached pools and their estimators.
	PoolBuilds int64
	PoolReuses int64
	PoolBytes  int64
	// Advances counts graph-epoch migrations (Advance calls) the session
	// survived with its warm state repaired in place.
	Advances int64
}

// NewSession returns an empty session for g under the given diffusion
// model; state is built lazily on first use. workers <= 0 selects
// GOMAXPROCS, matching Options.Workers semantics. The session starts at
// graph epoch 0; use NewSessionAtEpoch when g is a later snapshot of a
// dynamic graph.
func NewSession(g *graph.Graph, diffusion Diffusion, domAlgo DomAlgo, workers int) *Session {
	return NewSessionAtEpoch(g, diffusion, domAlgo, workers, 0)
}

// NewSessionAtEpoch is NewSession for a graph snapshot at a known epoch of
// an epoch-versioned (dynamic) graph, so the serving layer can later detect
// staleness by comparing Epoch against the graph's current epoch.
func NewSessionAtEpoch(g *graph.Graph, diffusion Diffusion, domAlgo DomAlgo, workers int, epoch uint64) *Session {
	return &Session{g: g, diffusion: diffusion, domAlgo: domAlgo, workers: workers, epoch: epoch, lk: make(chan struct{}, 1)}
}

// lock acquires the session, giving up if ctx is canceled first: a caller
// abandoning a queued solve must not keep waiting (in a server, that wait
// would pin a worker-pool slot behind a long-running solve).
func (s *Session) lock(ctx context.Context) error {
	select {
	case s.lk <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.lk <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) unlock() { <-s.lk }

// Graph returns the session's underlying graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Diffusion returns the session's diffusion model.
func (s *Session) Diffusion() Diffusion { return s.diffusion }

// prepare returns the cached instance+estimator for seeds, building one on
// a miss and evicting the least recently used entry past the bound. Caller
// holds the session lock.
func (s *Session) prepare(seeds []graph.V) (*sessionInstance, error) {
	key := seedsKey(seeds)
	s.tick++
	for _, si := range s.insts {
		if si.key == key {
			si.used = s.tick
			s.stats.Reuses++
			return si, nil
		}
	}
	in, err := newInstance(s.g, seeds)
	if err != nil {
		return nil, err
	}
	si := &sessionInstance{
		key:   key,
		seeds: append([]graph.V(nil), seeds...),
		in:    in,
		est:   NewEstimator(in.sampler(s.diffusion), s.workers, s.domAlgo),
		used:  s.tick,
	}
	if len(s.insts) < maxSessionInstances {
		s.insts = append(s.insts, si)
	} else {
		lru := 0
		for i, c := range s.insts {
			if c.used < s.insts[lru].used {
				lru = i
			}
		}
		for _, sp := range s.insts[lru].pools {
			s.poolBytes.Add(-sp.bytes)
		}
		s.insts[lru] = si
	}
	s.stats.Rebuilds++
	return si, nil
}

// warmPool returns si's cached incremental estimator for (opt.Seed,
// opt.Theta), building pool and estimator on a miss and evicting the least
// recently used pool past the bound. The pool is drawn exactly as a cold
// ReuseSamples run would draw it — same rng split chain, per-sample
// streams — so warm and cold solves stay bit-identical. The cache key
// deliberately excludes the worker count: pool content does not depend on
// it, so a hit at a different opt.Workers only re-fans the estimator's
// workers (SetWorkers) and keeps every cached sample and contribution.
// Caller holds the session lock and has already applied opt.withDefaults
// and resolved opt.Workers.
func (s *Session) warmPool(si *sessionInstance, opt Options) (sp *sessionPool, built bool) {
	s.tick++
	for _, c := range si.pools {
		if c.seed == opt.Seed && c.theta == opt.Theta {
			c.used = s.tick
			c.est.SetWorkers(opt.Workers)
			s.poolReuses.Add(1)
			return c, false
		}
	}
	base := rng.New(opt.Seed)
	est := NewIncrementalPooledEstimator(
		si.est.Sampler(), si.in.src, opt.Theta, opt.Workers, s.domAlgo, base.Split(^uint64(0)))
	sp = &sessionPool{seed: opt.Seed, theta: opt.Theta, est: est, used: s.tick, bytes: est.MemoryBytes()}
	if len(si.pools) < maxSessionPools {
		si.pools = append(si.pools, sp)
	} else {
		lru := 0
		for i, c := range si.pools {
			if c.used < si.pools[lru].used {
				lru = i
			}
		}
		s.poolBytes.Add(-si.pools[lru].bytes)
		si.pools[lru] = sp
	}
	s.poolBuilds.Add(1)
	s.poolBytes.Add(sp.bytes)
	return sp, true
}

// refreshPoolBytes folds the estimator's current footprint into the gauge:
// worker scratch and the dirty list are allocated lazily during solves, so
// the build-time measurement alone would understate residency severalfold
// on large graphs.
func (s *Session) refreshPoolBytes(sp *sessionPool) {
	now := sp.est.MemoryBytes()
	s.poolBytes.Add(now - sp.bytes)
	sp.bytes = now
}

// Acquire locks the session for one caller, waiting until it is free or
// ctx is canceled, and returns a handle whose methods run without further
// locking. Use it to hold the session across a whole request (e.g.
// spread-eval, solve, spread-eval) — and, in a server, to wait for a hot
// graph without occupying a CPU-admission slot. Callers must Release the
// handle exactly once.
func (s *Session) Acquire(ctx context.Context) (*LockedSession, error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	return &LockedSession{s: s}, nil
}

// LockedSession is exclusive access to a Session between Acquire and
// Release. It must stay on the goroutine chain that acquired it.
type LockedSession struct {
	s *Session
}

// Release unlocks the session.
func (h *LockedSession) Release() { h.s.unlock() }

// Epoch returns the graph epoch the session's cached state reflects.
func (h *LockedSession) Epoch() uint64 { return h.s.epoch }

// AdvanceStats reports one session migration to a new graph epoch.
type AdvanceStats struct {
	// Instances is the number of prepared seed-set instances re-bound to
	// the new graph.
	Instances int
	// PoolsRepaired counts cached sample pools migrated by incremental
	// repair; PoolsDropped counts pools that had to be discarded (the
	// vertex count changed under a multi-seed instance, which moves the
	// super-seed id) — the next solve on those keys rebuilds cold.
	PoolsRepaired, PoolsDropped int
	// SamplesRedrawn and SamplesKept partition the repaired pools' θ
	// samples into redrawn-dirty versus byte-copied-clean.
	SamplesRedrawn, SamplesKept int64
}

// Advance migrates the session (and all its warm state) from its current
// graph to a later epoch's snapshot g of the same evolving graph.
// changedSources must list every vertex whose out-adjacency changed between
// the session's epoch and the new one, changedTargets every vertex whose
// in-adjacency changed (both from dynamic.Graph.ChangedSince); vertex ids
// must be stable, and the vertex count may only have grown.
//
// Prepared instances are re-bound to the new graph; each cached ReuseSamples
// pool is repaired in place — only samples whose rng replay could touch a
// change are redrawn: under IC those containing a changed source, under LT
// additionally those containing an old in-neighbor of a changed target
// (RepairSetLT) — leaving estimator state bit-identical to a cold build at
// the new epoch, so warm solves stay warm across mutations. For multi-seed
// instances the changed vertices are mapped into the unified id space (a
// changed seed row folds into the super-seed's combined row); a grown
// vertex count moves the super-seed id, so those pools are dropped rather
// than repaired.
func (h *LockedSession) Advance(g *graph.Graph, epoch uint64, changedSources, changedTargets []graph.V) AdvanceStats {
	s := h.s
	var st AdvanceStats
	nChanged := g.N() != s.g.N()
	kept := s.insts[:0]
	for _, si := range s.insts {
		in, err := newInstance(g, si.seeds)
		if err != nil {
			// Cannot happen while ids are stable and n only grows, but a
			// dropped instance (rebuilt on next use) beats a poisoned one.
			for _, sp := range si.pools {
				s.poolBytes.Add(-sp.bytes)
			}
			continue
		}
		sampler := in.sampler(s.diffusion)
		repairable := true
		mappedS, mappedT := changedSources, changedTargets
		if in.numSeeds > 1 {
			if nChanged {
				repairable = false
			} else {
				mappedS = make([]graph.V, 0, len(changedSources)+1)
				super := false
				for _, v := range changedSources {
					if si.in.isSeed[v] {
						super = true // seed rows fold into the super-seed row
					} else {
						mappedS = append(mappedS, v)
					}
				}
				if super {
					mappedS = append(mappedS, in.src)
				}
				// Seeds are fully disconnected in the unified graph: their
				// in-rows are empty there, so they drop out of the targets.
				mappedT = make([]graph.V, 0, len(changedTargets))
				for _, v := range changedTargets {
					if !si.in.isSeed[v] {
						mappedT = append(mappedT, v)
					}
				}
			}
		}
		// The dirty criterion handed to Repair: under LT, widen with the
		// old working graph's in-neighbors of every changed target.
		criterion := mappedS
		if repairable && s.diffusion == DiffusionLT {
			criterion = RepairSetLT(si.in.g, mappedS, mappedT)
		}
		pools := si.pools[:0]
		for _, sp := range si.pools {
			if !repairable {
				s.poolBytes.Add(-sp.bytes)
				st.PoolsDropped++
				continue
			}
			newPool, dirty := sp.est.Pool().Repair(sampler, criterion, sp.est.Workers())
			sp.est.RepairPool(newPool, dirty)
			st.PoolsRepaired++
			st.SamplesRedrawn += int64(len(dirty))
			st.SamplesKept += int64(newPool.Theta() - len(dirty))
			s.refreshPoolBytes(sp)
			pools = append(pools, sp)
		}
		si.pools = pools
		si.in = in
		si.est = NewEstimator(sampler, s.workers, s.domAlgo)
		kept = append(kept, si)
		st.Instances++
	}
	s.insts = kept
	s.g = g
	s.epoch = epoch
	s.stats.Advances++
	return st
}

// Reset discards all cached state and re-binds the session to g at epoch —
// the fallback when the graph diverged too far for Advance (the changelog
// no longer reaches the session's epoch).
func (h *LockedSession) Reset(g *graph.Graph, epoch uint64) {
	s := h.s
	for _, si := range s.insts {
		for _, sp := range si.pools {
			s.poolBytes.Add(-sp.bytes)
		}
	}
	s.insts = nil
	s.g = g
	s.epoch = epoch
}

// Solve is Session.Solve on an already-acquired session.
func (h *LockedSession) Solve(ctx context.Context, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	if b < 0 {
		return Result{}, fmt.Errorf("core: negative budget %d", b)
	}
	s := h.s
	si, err := s.prepare(seeds)
	if err != nil {
		return Result{}, err
	}
	s.stats.Solves++
	opt = opt.withDefaults()
	opt.Diffusion = s.diffusion
	opt.DomAlgo = s.domAlgo
	if opt.Workers == 0 {
		opt.Workers = s.workers
	}
	si.est.SetWorkers(opt.Workers)
	warm := warmState{fresh: si.est}
	var sp *sessionPool
	if opt.ReuseSamples && (alg == AdvancedGreedy || alg == GreedyReplace) {
		sp, warm.poolBuilt = s.warmPool(si, opt)
		warm.incr = sp.est
	}
	res, err := solveInstance(ctx, si.in, warm, b, alg, opt)
	if sp != nil {
		s.refreshPoolBytes(sp)
	}
	return res, err
}

// EvaluateSpread is Session.EvaluateSpread on an already-acquired session.
func (h *LockedSession) EvaluateSpread(seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	s := h.s
	si, err := s.prepare(seeds)
	if err != nil {
		return 0, err
	}
	opt = opt.withDefaults()
	in := si.in
	blocked := make([]bool, in.g.N())
	for _, v := range blockers {
		if v < 0 || int(v) >= s.g.N() {
			return 0, fmt.Errorf("core: blocker %d out of range", v)
		}
		if in.isSeed[v] {
			return 0, fmt.Errorf("core: blocker %d is a seed", v)
		}
		blocked[v] = true
	}
	workers := opt.Workers
	if workers == 0 {
		workers = s.workers
	}
	spread := cascade.EstimateSpreadParallel(si.est.Sampler(), in.src, blocked, rounds, workers, rng.New(opt.Seed^0x5eed))
	return graph.SpreadFromUnified(spread, in.numSeeds), nil
}

// Solve is SolveContext through the session's cached state. The session's
// diffusion model and dominator algorithm override the corresponding
// Options fields so cached scratch always matches the run; Options.Workers
// is honored (zero uses the session default) by re-fanning the cached
// estimators. With Options that agree on those fields it returns results
// identical to SolveContext. Canceling ctx while queued for the session
// returns ctx.Err() without solving.
func (s *Session) Solve(ctx context.Context, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	h, err := s.Acquire(ctx)
	if err != nil {
		return Result{}, err
	}
	defer h.Release()
	return h.Solve(ctx, seeds, b, alg, opt)
}

// EvaluateSpread is EvaluateSpread through the session's cached instance
// and sampler (the estimator is untouched). ctx only bounds the wait for
// the session lock; the evaluation itself runs to completion.
func (s *Session) EvaluateSpread(ctx context.Context, seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	h, err := s.Acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return h.EvaluateSpread(seeds, blockers, rounds, opt)
}

// Stats returns a snapshot of the reuse counters. It waits for any
// in-flight solve.
func (s *Session) Stats() SessionStats {
	s.lk <- struct{}{}
	defer s.unlock()
	st := s.stats
	st.PoolBuilds = s.poolBuilds.Load()
	st.PoolReuses = s.poolReuses.Load()
	st.PoolBytes = s.poolBytes.Load()
	return st
}

// PoolStats reports the ReuseSamples pool counters without taking the
// session lock, so a metrics endpoint never queues behind a running solve.
func (s *Session) PoolStats() (bytes, builds, reuses int64) {
	return s.poolBytes.Load(), s.poolBuilds.Load(), s.poolReuses.Load()
}

// seedsKey canonicalizes a seed slice for reuse detection. Order is kept:
// UnifySeeds lays out the super-source adjacency in seed order, so only a
// byte-identical seed sequence is guaranteed to replay identically.
func seedsKey(seeds []graph.V) string {
	var b strings.Builder
	for i, v := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}
