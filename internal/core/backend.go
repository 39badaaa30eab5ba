package core

import (
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// estBackend abstracts over the DecreaseES strategies so the greedy
// algorithms stay agnostic: fresh samples every round (the paper's
// Algorithm 2, default), or one shared pool reused across rounds
// (Options.ReuseSamples) answered by the delta-maintained
// IncrementalPooledEstimator. The non-incremental PooledEstimator can also
// be slotted in (tests and the ablation benchmarks do) — the two are
// bit-identical over the same pool, so nothing downstream can tell.
type estBackend struct {
	fresh  *Estimator
	pooled *PooledEstimator
	incr   *IncrementalPooledEstimator
	theta  int
	base   *rng.Source
	drawn  int64

	// flips accumulates the blocked-set mutations the greedy loop reported
	// since the last decreaseES call; flipsKnown turns true after the first
	// call, from which point the list is complete and the incremental
	// estimator can skip its O(n) diff scan.
	flips      []graph.V
	flipsKnown bool

	// scratch receives the Δ vector for the estimators that fill a caller
	// buffer; the incremental estimator instead lends out its maintained
	// vector, so the ReuseSamples path never pays a per-round O(n) fill.
	scratch []float64
}

// buf returns the backend-owned Δ buffer of length n.
func (b *estBackend) buf(n int) []float64 {
	if cap(b.scratch) < n {
		b.scratch = make([]float64, n)
	}
	return b.scratch[:n]
}

// noteFlip records that the caller flipped v's blocked state. The greedy
// loops call it after every blocked[v] mutation; a loop that ever mutates
// blocked without reporting here would corrupt the incremental cache.
func (b *estBackend) noteFlip(v graph.V) {
	b.flips = append(b.flips, v)
}

// newEstBackend builds the configured backend for one cold solve run.
func newEstBackend(in *instance, opt Options, base *rng.Source) *estBackend {
	b := &estBackend{theta: opt.Theta, base: base}
	sampler := in.sampler(opt.Diffusion)
	if opt.ReuseSamples {
		b.incr = NewIncrementalPooledEstimator(sampler, in.src, opt.Theta, opt.Workers, opt.DomAlgo, base.Split(^uint64(0)))
		b.drawn = int64(opt.Theta)
	} else {
		b.fresh = NewEstimator(sampler, opt.Workers, opt.DomAlgo)
	}
	return b
}

// newEstBackendCached wraps an already-built fresh Estimator (a Session's
// warm one) as a backend for one run. The estimator holds no per-run state
// — randomness enters only through the base source split per round — so a
// run through a warm estimator selects exactly the blockers a cold run
// with the same (Seed, Theta, Workers) would.
func newEstBackendCached(est *Estimator, opt Options, base *rng.Source) *estBackend {
	return &estBackend{fresh: est, theta: opt.Theta, base: base}
}

// newEstBackendWarmPool wraps a Session's warm incremental estimator: the
// pool already exists, so the run draws zero new samples and the
// accumulator state carried over from earlier runs keeps rounds O(θ_x·m̄).
// Determinism still holds — the pool is keyed by (Seed, Theta) and the
// maintained accumulator always equals a full re-scan's.
func newEstBackendWarmPool(est *IncrementalPooledEstimator, opt Options, base *rng.Source) *estBackend {
	return &estBackend{incr: est, theta: opt.Theta, base: base}
}

// decreaseES returns Δ[u] on G[V\B] for the given greedy round. The
// returned slice aliases backend or estimator state and is read-only,
// valid until the next call — the greedy loops scan it for their argmax
// and never retain it across rounds.
func (b *estBackend) decreaseES(src graph.V, blocked []bool, round uint64) []float64 {
	switch {
	case b.incr != nil:
		var vals []float64
		if b.flipsKnown {
			vals = b.incr.DecreaseESFlipsView(blocked, b.flips)
		} else {
			// First call of this run: a warm estimator may carry blocked
			// state from an earlier run, so diff in full once.
			vals = b.incr.DecreaseESView(blocked)
		}
		b.flips = b.flips[:0]
		b.flipsKnown = true
		return vals
	case b.pooled != nil:
		dst := b.buf(len(blocked))
		b.pooled.DecreaseES(dst, blocked)
		return dst
	default:
		dst := b.buf(len(blocked))
		b.fresh.DecreaseES(dst, src, blocked, b.theta, b.base.Split(round))
		b.drawn += int64(b.theta)
		return dst
	}
}

// samplesDrawn reports the number of live-edge samples generated during this
// run (a freshly built pool counts once, a warm pool counts zero, fresh
// sampling counts per round).
func (b *estBackend) samplesDrawn() int64 { return b.drawn }

// workSnapshot returns the cumulative samples-processed counter;
// Options.OnRound emitters delta two snapshots to charge work to a single
// round. Incremental backends report reprocessed dirty samples, fresh
// backends report samples drawn; the plain pooled backend (tests only)
// reports nothing.
func (b *estBackend) workSnapshot() int64 {
	if b.incr != nil {
		return b.incr.Stats().SamplesReprocessed
	}
	return b.drawn
}
