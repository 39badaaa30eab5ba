package core

import (
	"sort"
	"time"

	"github.com/imin-dev/imin/internal/graph"
)

// solveGreedyReplace implements Algorithm 4. The motivation (Example 3):
// with unlimited budget the optimal blockers are exactly the seed's
// out-neighbors, yet plain greedy may spend its budget elsewhere and miss
// them. GreedyReplace therefore
//
//  1. greedily blocks up to min(dout(s), b) of the seed's out-neighbors,
//     ranked by the Algorithm 2 estimator, then
//  2. walks the chosen blockers in reverse insertion order and greedily
//     replaces each with the globally best candidate, terminating early
//     the first time a blocker is its own best replacement (lines 19-20).
//
// The expected spread is never worse than blocking out-neighbors only, and
// the replacement pass recovers greedy's advantage at small budgets.
func solveGreedyReplace(halt stopper, in *instance, est *estBackend, b int, opt Options) Result {
	n := in.g.N()
	blocked := make([]bool, n)
	var blockers []graph.V
	round := uint64(0)

	// Phase 1: candidate blockers limited to the seed's out-neighbors
	// (in the unified instance: the union of all seeds' out-neighbors).
	// The members are collected once into an ascending id list so each
	// round scans |CB| entries, not all n vertices; ascending order keeps
	// the original whole-vertex-range tie-breaking.
	inCB := make([]bool, n)
	var cbList []graph.V
	for _, v := range in.g.OutNeighbors(in.src) {
		if in.candidate(v) && !inCB[v] {
			inCB[v] = true
			cbList = append(cbList, v)
		}
	}
	sort.Slice(cbList, func(i, j int) bool { return cbList[i] < cbList[j] })
	phase1 := len(cbList)
	if b < phase1 {
		phase1 = b
	}
	for i := 0; i < phase1; i++ {
		if halt.stop() {
			return halt.abort(Result{Blockers: blockers, SampledGraphs: est.samplesDrawn()})
		}
		var roundStart time.Time
		var proc0 int64
		if opt.OnRound != nil {
			roundStart = time.Now()
			proc0 = est.workSnapshot()
		}
		delta := est.decreaseES(in.src, blocked, round)
		round++

		best := graph.V(-1)
		for _, u := range cbList {
			if !inCB[u] || blocked[u] {
				continue
			}
			if best == -1 || delta[u] > delta[best] {
				best = u
			}
		}
		if best == -1 {
			break
		}
		inCB[best] = false // CB ← CB \ {x}
		blocked[best] = true
		est.noteFlip(best)
		blockers = append(blockers, best)
		emitRound(opt, int(round)-1, "select", best, roundStart, est, proc0)
	}

	// Phase 2: replacement in reverse insertion order over the full
	// candidate set.
	for i := len(blockers) - 1; i >= 0; i-- {
		if halt.stop() {
			return halt.abort(Result{Blockers: blockers, SampledGraphs: est.samplesDrawn()})
		}
		var roundStart time.Time
		var proc0 int64
		if opt.OnRound != nil {
			roundStart = time.Now()
			proc0 = est.workSnapshot()
		}
		u := blockers[i]
		blocked[u] = false // B ← B \ {u}
		est.noteFlip(u)
		delta := est.decreaseES(in.src, blocked, round)
		round++

		best := pickMax(in, blocked, delta)
		if best == -1 {
			blocked[u] = true // nothing to swap in; keep u
			est.noteFlip(u)
			emitRound(opt, int(round)-1, "replace", u, roundStart, est, proc0)
			continue
		}
		blocked[best] = true
		est.noteFlip(best)
		blockers[i] = best
		emitRound(opt, int(round)-1, "replace", best, roundStart, est, proc0)
		if best == u {
			// Early termination: the removed blocker is its own best
			// replacement, so earlier (stronger) picks won't be replaced
			// either.
			break
		}
	}
	return Result{Blockers: blockers, SampledGraphs: est.samplesDrawn()}
}

// emitRound fires Options.OnRound with deltas against the snapshot taken at
// the top of the round. No-op when the hook is unset.
func emitRound(opt Options, round int, phase string, chosen graph.V, start time.Time, est *estBackend, proc0 int64) {
	if opt.OnRound == nil {
		return
	}
	opt.OnRound(RoundInfo{
		Round:        round,
		Phase:        phase,
		Chosen:       chosen,
		Duration:     time.Since(start),
		SamplesDirty: est.workSnapshot() - proc0,
	})
}
