package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Algorithm names a blocker-selection strategy.
type Algorithm string

const (
	// Rand picks b random non-seed vertices (baseline "RA").
	Rand Algorithm = "rand"
	// OutDegree picks the b highest-out-degree non-seed vertices ("OD").
	OutDegree Algorithm = "outdegree"
	// BaselineGreedy is Algorithm 1: greedy with Monte-Carlo simulations,
	// the prior state of the art ("BG").
	BaselineGreedy Algorithm = "baseline-greedy"
	// AdvancedGreedy is Algorithm 3: greedy driven by the sampled-graph +
	// dominator-tree estimator ("AG").
	AdvancedGreedy Algorithm = "advanced-greedy"
	// GreedyReplace is Algorithm 4: out-neighbor initialization followed by
	// reverse-order replacement ("GR").
	GreedyReplace Algorithm = "greedy-replace"
)

// Diffusion selects the diffusion model.
type Diffusion int

const (
	// DiffusionIC is the independent cascade model (the paper's focus).
	DiffusionIC Diffusion = iota
	// DiffusionLT is the linear threshold model via the triggering-model
	// extension of Section V-E; edge probabilities act as LT weights.
	DiffusionLT
)

// Options configures a Solve run. The zero value picks the paper's default
// parameters scaled for interactive use; see the field comments.
type Options struct {
	// Theta is the number of sampled graphs per estimation round
	// (Algorithm 2's θ). Default 10000, the paper's setting.
	Theta int
	// MCSRounds is the number of Monte-Carlo rounds BaselineGreedy uses per
	// spread evaluation (the paper's r). Default 10000.
	MCSRounds int
	// Workers bounds internal parallelism. Default GOMAXPROCS.
	Workers int
	// Seed makes the run reproducible. Two runs with equal options return
	// identical blocker sets.
	Seed uint64
	// Diffusion selects IC (default) or LT.
	Diffusion Diffusion
	// DomAlgo selects the dominator algorithm inside the estimator.
	DomAlgo DomAlgo
	// ReuseSamples draws the θ live-edge samples once and reuses the pool
	// across greedy rounds (common random numbers) instead of resampling
	// every round — the DESIGN.md §6 "sampling reuse" variant, implemented
	// by PooledEstimator. Costs memory proportional to θ × sample size.
	ReuseSamples bool
	// Timeout aborts the run after the given duration, returning the
	// blockers selected so far with Result.TimedOut set. Zero means no
	// limit. (The paper caps runs at 24 hours; Figure 7/8 report BG timing
	// out on most datasets.)
	Timeout time.Duration
	// OnRound, when non-nil, is invoked after each greedy round of
	// AdvancedGreedy and GreedyReplace with that round's timing and
	// estimator work counts. It is a pure observer: the selection is
	// bit-identical whether or not it is set, the callback runs on the
	// solving goroutine (keep it cheap), and a nil hook costs nothing —
	// the loops take no timestamps when it is unset. BaselineGreedy and
	// the Rand/OutDegree baselines do not emit rounds.
	OnRound func(RoundInfo)
}

// RoundInfo describes one completed greedy round for Options.OnRound.
type RoundInfo struct {
	// Round is the 0-based index of the round within the run; GreedyReplace
	// keeps counting across its two phases.
	Round int
	// Phase is "select" for AdvancedGreedy rounds and GreedyReplace's
	// out-neighbor phase, "replace" for GreedyReplace's replacement pass.
	Phase string
	// Chosen is the vertex blocked (or kept, in a replacement round that
	// found no swap) this round.
	Chosen graph.V
	// Duration is the wall-clock time of the round.
	Duration time.Duration
	// SamplesDirty counts the live-edge samples the estimator processed
	// this round: reprocessed dirty samples for the incremental pooled
	// estimator, freshly drawn samples otherwise.
	SamplesDirty int64
	// SamplesStolen is always 0; retained because the benchmark module
	// reads it.
	SamplesStolen int64
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 10000
	}
	if o.MCSRounds == 0 {
		o.MCSRounds = 10000
	}
	return o
}

// Result reports a Solve run.
type Result struct {
	// Blockers is the selected blocker set, |Blockers| ≤ b, in original
	// vertex ids, in selection order.
	Blockers []graph.V
	// Runtime is the wall-clock duration of the selection.
	Runtime time.Duration
	// TimedOut reports whether the run hit Options.Timeout; Blockers then
	// holds the partial selection.
	TimedOut bool
	// Canceled reports whether the run was stopped early by the caller's
	// context (SolveContext / Session.Solve); Blockers then holds the
	// partial selection, mirroring TimedOut.
	Canceled bool
	// SampledGraphs counts live-edge samples drawn (AG/GR) and
	// MCSSimulations counts Monte-Carlo rounds run (BG), for the cost
	// accounting in the efficiency experiments.
	SampledGraphs  int64
	MCSSimulations int64
}

// instance is a single-source reduction of an IMIN problem.
type instance struct {
	g        *graph.Graph // working graph (unified when |seeds| > 1)
	src      graph.V
	isSeed   []bool // over working-graph ids; excludes super-seed
	numSeeds int
	orig     *graph.Graph // the caller's graph (original ids = working ids)
	cands    []graph.V    // blockable vertices, ascending (not src, not a seed)
}

// newInstance applies the multi-seed reduction of Section V.
func newInstance(g *graph.Graph, seeds []graph.V) (*instance, error) {
	if len(seeds) == 0 {
		return nil, errors.New("core: empty seed set")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= g.N() {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, g.N())
		}
	}
	isSeed := make([]bool, g.N()+1)
	distinct := 0
	for _, s := range seeds {
		if !isSeed[s] {
			isSeed[s] = true
			distinct++
		}
	}
	if distinct == g.N() {
		return nil, errors.New("core: every vertex is a seed; nothing to block")
	}
	var in *instance
	if distinct == 1 {
		var src graph.V
		for _, s := range seeds {
			src = s
			break
		}
		in = &instance{g: g, src: src, isSeed: isSeed[:g.N()], numSeeds: 1, orig: g}
	} else {
		unified, super := g.UnifySeeds(seeds)
		in = &instance{g: unified, src: super, isSeed: isSeed, numSeeds: distinct, orig: g}
	}
	// The candidate id list is shared by every selection loop (greedy argmax
	// scans, the Rand/OutDegree baselines): built once per instance, it keeps
	// per-round scans O(candidates) instead of O(n) re-filtering, and a
	// session-cached instance pays it only on first sight of a seed set.
	in.cands = make([]graph.V, 0, in.orig.N()-distinct)
	for u := graph.V(0); int(u) < in.orig.N(); u++ {
		if in.candidate(u) {
			in.cands = append(in.cands, u)
		}
	}
	return in, nil
}

// sampler builds the live-edge sampler for the chosen diffusion model.
func (in *instance) sampler(d Diffusion) cascade.LiveSampler {
	if d == DiffusionLT {
		return cascade.NewLT(in.g)
	}
	return cascade.NewIC(in.g)
}

// candidate reports whether u may be blocked: not the source, not a seed.
func (in *instance) candidate(u graph.V) bool {
	return u != in.src && !in.isSeed[u]
}

// Solve selects at most b blockers for seed set seeds on g using the chosen
// algorithm. It returns the blockers in original vertex ids.
func Solve(g *graph.Graph, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	return SolveContext(context.Background(), g, seeds, b, alg, opt)
}

// SolveContext is Solve with a cancelable context: when ctx is canceled the
// greedy loops stop at the next round boundary (BaselineGreedy: the next
// candidate evaluation) and the partial selection is returned with
// Result.Canceled set, exactly like an Options.Timeout expiry sets
// Result.TimedOut. No error is returned for cancellation, so long-running
// services can still use the partial blocker set.
func SolveContext(ctx context.Context, g *graph.Graph, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	// Validate before newInstance: the multi-seed reduction copies the
	// whole graph, which bad input should not pay for.
	if b < 0 {
		return Result{}, fmt.Errorf("core: negative budget %d", b)
	}
	in, err := newInstance(g, seeds)
	if err != nil {
		return Result{}, err
	}
	return solveInstance(ctx, in, warmState{}, b, alg, opt)
}

// warmState carries a Session's cached estimator state into solveInstance.
// The zero value means a cold run: everything is built from scratch.
type warmState struct {
	// fresh is a warm Algorithm 2 estimator over the instance's sampler,
	// reused instead of allocating fresh worker scratch. Ignored by
	// ReuseSamples runs and by algorithms that do not use the estimator.
	fresh *Estimator
	// incr is a warm pool-backed incremental estimator whose pool matches
	// (Options.Seed, Options.Theta); ReuseSamples runs use it instead of
	// drawing a new pool. poolBuilt records whether the session had to draw
	// the pool for this very call, for the SampledGraphs cost accounting.
	incr      *IncrementalPooledEstimator
	poolBuilt bool
}

// solveInstance dispatches a prepared instance to the chosen algorithm.
// Callers (SolveContext, Session.Solve) have already rejected negative
// budgets — before paying for instance preparation.
func solveInstance(ctx context.Context, in *instance, warm warmState, b int, alg Algorithm, opt Options) (Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	halt := stopper{ctx: ctx, dl: opt.deadline(start)}
	var res Result
	switch alg {
	case Rand:
		res = solveRand(in, b, opt)
	case OutDegree:
		res = solveOutDegree(in, b, opt)
	case BaselineGreedy:
		res = solveBaselineGreedy(halt, in, b, opt)
	case AdvancedGreedy, GreedyReplace:
		base := rng.New(opt.Seed)
		var est *estBackend
		switch {
		case opt.ReuseSamples && warm.incr != nil:
			est = newEstBackendWarmPool(warm.incr, opt, base)
			if warm.poolBuilt {
				est.drawn = int64(opt.Theta)
			}
		case !opt.ReuseSamples && warm.fresh != nil:
			est = newEstBackendCached(warm.fresh, opt, base)
		default:
			est = newEstBackend(in, opt, base)
		}
		if alg == AdvancedGreedy {
			res = solveAdvancedGreedy(halt, in, est, b, opt)
		} else {
			res = solveGreedyReplace(halt, in, est, b, opt)
		}
	default:
		return Result{}, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// EvaluateSpread estimates the expected spread E(S, G[V\B]) of a blocker
// set via Monte-Carlo simulation with the given number of rounds, in
// original-problem terms (seeds count toward the spread). This is how the
// effectiveness numbers of Table VII are measured.
func EvaluateSpread(g *graph.Graph, seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	opt = opt.withDefaults()
	in, err := newInstance(g, seeds)
	if err != nil {
		return 0, err
	}
	blocked := make([]bool, in.g.N())
	for _, v := range blockers {
		if v < 0 || int(v) >= g.N() {
			return 0, fmt.Errorf("core: blocker %d out of range", v)
		}
		if in.isSeed[v] {
			return 0, fmt.Errorf("core: blocker %d is a seed", v)
		}
		blocked[v] = true
	}
	s := in.sampler(opt.Diffusion)
	unifiedSpread := cascade.EstimateSpreadParallel(s, in.src, blocked, rounds, opt.Workers, rng.New(opt.Seed^0x5eed))
	return graph.SpreadFromUnified(unifiedSpread, in.numSeeds), nil
}

// deadline converts Options.Timeout into an absolute deadline; the zero
// time means "no deadline".
func (o Options) deadline(start time.Time) time.Time {
	if o.Timeout <= 0 {
		return time.Time{}
	}
	return start.Add(o.Timeout)
}

func pastDeadline(dl time.Time) bool {
	return !dl.IsZero() && time.Now().After(dl)
}

// stopper bundles the two early-exit signals the greedy loops poll between
// rounds: the Options.Timeout deadline and caller-context cancellation.
type stopper struct {
	ctx context.Context
	dl  time.Time
}

// stop reports whether the run should end now with a partial result.
func (s stopper) stop() bool {
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return true
		default:
		}
	}
	return pastDeadline(s.dl)
}

// abort stamps the matching early-exit flag onto a partial result.
func (s stopper) abort(res Result) Result {
	if s.ctx != nil && s.ctx.Err() != nil {
		res.Canceled = true
	} else {
		res.TimedOut = true
	}
	return res
}
