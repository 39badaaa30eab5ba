package core

import (
	"sync"
	"sync/atomic"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// IncrementalPooledEstimator is the delta-maintained, parallel version of
// PooledEstimator. Blocking (or unblocking) a vertex x can only change the
// filtered dominator computation of samples whose reachable region contains
// x, so instead of re-scanning all θ samples every round it
//
//  1. diffs the requested blocker set against the one the cache reflects,
//  2. collects the dirty samples through the pool's inverted index into one
//     staging list,
//  3. has the workers claim fixed-size chunks of that list through a single
//     atomic cursor, retract each claimed sample's cached per-vertex
//     subtree-size contributions, re-run the filtered dominator computation,
//     and add the new contributions back — each worker into its own
//     cache-line-aligned int64 accumulator,
//  4. refreshes the cached Δ vector at exactly the touched vertices by a
//     range-partitioned parallel reduction over the worker accumulators.
//
// A round therefore costs O(θ_x·m̄/P + t) where θ_x is the number of
// samples containing the flipped vertices — on real graphs a small
// fraction of θ — P the worker count, and t the number of touched
// vertices, against PooledEstimator's O(θ·m̄).
//
// Equivalence and P-independence: no sample has an owning worker. Whichever
// worker claims a sample folds its contribution deltas into its own
// accumulator, and correctness needs only the invariant that
// Σ_w acc_w[u] equals the sum of u's cached contributions over all samples.
// Contributions are exact int64 values, so that sum — and with it the
// DecreaseES output — is independent of the worker count and of the claim
// schedule: it is bit-identical to PooledEstimator over the same pool for
// every blocker sequence, every worker count, and every interleaving (the
// cross-validation and determinism tests assert this). The contribution
// arena is sample-disjoint and each claimed chunk has exactly one
// processor, so the phase is race-free. The estimator carries mutable
// state and admits one DecreaseES caller at a time, like Estimator; the
// state survives across solves, so a warm session's later runs on the same
// pool only reprocess samples touched by the previous run's blockers.
// SetWorkers rebuilds the worker set without touching the pool or the
// contribution cache.
type IncrementalPooledEstimator struct {
	pool    *SamplePool
	workers int // requested; len(ws) is the clamped effective count
	domAlgo DomAlgo

	primed      bool
	prevBlocked []bool    // blocker set the cache reflects
	vals        []float64 // vals[u] = float64(Σ_w acc_w[u])/θ, maintained at touched entries

	// Per-sample contribution cache in arena form: sample i's entries
	// occupy the first contribLen[i] slots of
	// contrib{Vert,Size}[pool.contribBase(i):], which fits because a sample
	// contributes at most K_i−1 (vertex, size) pairs. Slots of distinct
	// samples are disjoint, so workers recompute dirty samples in parallel.
	// The cache is worker-independent state: SetWorkers reuses it to
	// rebuild the new accumulators.
	contribLen  []int32
	contribVert []graph.V
	contribSize []int32

	ws []*incWorker

	// Dirty staging: markDirty appends to dirtyList (deduped by dirtyMark)
	// in encounter order; a round's workers claim chunks of it. The list is
	// worker-independent, so pending dirty samples (queued by RepairPool
	// between rounds) survive SetWorkers in place.
	dirtyMark []bool  // dedup over samples, cleared after each round
	dirtyList []int32 // staged dirty samples for the next round

	union      []graph.V   // serial-reduction union scratch
	unionParts [][]graph.V // parallel-reduction per-range segments
	unionMark  []bool

	rounds      int64 // DecreaseES calls answered
	reprocessed int64 // dirty samples recomputed across all rounds
}

// incWorker is one worker's persistent state: its cache-line-aligned
// accumulator and touched-mark arrays, and the scratch for re-running
// filtered dominator computations. During the parallel phase a worker
// writes only its own fields plus the (sample-disjoint) contribution arena.
type incWorker struct {
	filterScratch
	sview   sampleView
	acc     []int64   // acc[u] = Σ of cached subtree-size deltas this worker folded in; cache-line-aligned
	marked  []bool    // dedup for touched; cache-line-aligned
	touched []graph.V // vertices whose acc changed this round
}

// add folds one contribution delta into the worker accumulator, recording
// the vertex for the reduction phase.
func (w *incWorker) add(v graph.V, d int64) {
	if !w.marked[v] {
		w.marked[v] = true
		w.touched = append(w.touched, v)
	}
	w.acc[v] += d
}

// NewIncrementalPooledEstimator draws theta samples into a fresh pool and
// wraps it. workers <= 0 selects GOMAXPROCS.
func NewIncrementalPooledEstimator(sampler cascade.LiveSampler, src graph.V, theta, workers int, domAlgo DomAlgo, base *rng.Source) *IncrementalPooledEstimator {
	return NewIncrementalPooledEstimatorFromPool(NewSamplePool(sampler, src, theta, workers, base), workers, domAlgo)
}

// NewIncrementalPooledEstimatorFromPool wraps an existing (possibly shared)
// pool. The estimator's first DecreaseES call processes every sample to
// prime the accumulators; later calls are incremental.
func NewIncrementalPooledEstimatorFromPool(pool *SamplePool, workers int, domAlgo DomAlgo) *IncrementalPooledEstimator {
	n := pool.g.N()
	tv := pool.totalVertEntries()
	e := &IncrementalPooledEstimator{
		pool:        pool,
		domAlgo:     domAlgo,
		prevBlocked: make([]bool, n),
		vals:        make([]float64, n),
		contribLen:  make([]int32, pool.Theta()),
		contribVert: make([]graph.V, tv),
		contribSize: make([]int32, tv),
		dirtyMark:   make([]bool, pool.Theta()),
		unionMark:   make([]bool, n),
	}
	e.rebuildWorkers(workers)
	return e
}

// Theta returns the stored sample count.
func (e *IncrementalPooledEstimator) Theta() int { return e.pool.Theta() }

// Pool returns the backing sample pool.
func (e *IncrementalPooledEstimator) Pool() *SamplePool { return e.pool }

// Workers returns the requested worker count (0 = GOMAXPROCS at rebuild
// time, clamped to θ).
func (e *IncrementalPooledEstimator) Workers() int { return e.workers }

// SetWorkers changes the worker count. The pool, the contribution cache,
// and the cached Δ vector are untouched — only the worker accumulators are
// rebuilt (one pass over the cached contributions) — so a warm session can
// serve requests at different worker counts without re-drawing or
// re-priming anything, and the output stays bit-identical: Σ_w acc_w does
// not depend on how many accumulators hold it. No-op when the effective
// worker count is unchanged. Must not be called concurrently with
// DecreaseES.
func (e *IncrementalPooledEstimator) SetWorkers(workers int) {
	if poolWorkers(workers, e.pool.Theta()) == len(e.ws) {
		e.workers = workers
		return
	}
	e.rebuildWorkers(workers)
}

// rebuildWorkers builds the worker set for the clamped worker count and, if
// the estimator is primed, re-aggregates the per-sample contribution cache
// into the first worker's accumulator. The staged dirty list is
// worker-independent and survives in place; the touched-vertex marks of
// contributions RepairPool retracted between rounds are carried over, so a
// worker change between a pool repair and the next DecreaseES loses
// nothing.
func (e *IncrementalPooledEstimator) rebuildWorkers(workers int) {
	var pendingTouched []graph.V
	for _, w := range e.ws {
		pendingTouched = append(pendingTouched, w.touched...)
	}
	e.workers = workers
	n := e.pool.g.N()
	e.ws = make([]*incWorker, poolWorkers(workers, e.pool.Theta()))
	for i := range e.ws {
		e.ws[i] = &incWorker{
			filterScratch: newFilterScratch(),
			acc:           alignedInt64(n),
			marked:        alignedBools(n),
		}
	}
	// Touched marks exist only to drive the next round's Δ-vector refresh;
	// any worker's list feeds the same union, so they all land on worker 0.
	w0 := e.ws[0]
	for _, v := range pendingTouched {
		if !w0.marked[v] {
			w0.marked[v] = true
			w0.touched = append(w0.touched, v)
		}
	}
	if !e.primed {
		return
	}
	for i := 0; i < e.pool.Theta(); i++ {
		base := e.pool.contribBase(i)
		for j := base; j < base+int64(e.contribLen[i]); j++ {
			w0.acc[e.contribVert[j]] += int64(e.contribSize[j])
		}
	}
}

// DecreaseES estimates Δ[u] on G[V\B] for every vertex from the stored
// pool, writing into dst (length ≥ n). Output is bit-identical to
// PooledEstimator.DecreaseES over the same pool; only samples containing a
// vertex whose blocked state changed since the previous call are
// re-processed. The changed vertices are found by diffing blocked against
// the previous call's set; callers that track their own mutations can hand
// them over through DecreaseESFlips and skip the O(n) diff.
func (e *IncrementalPooledEstimator) DecreaseES(dst []float64, blocked []bool) {
	copy(dst[:e.pool.g.N()], e.decreaseES(blocked, nil, false))
}

// DecreaseESFlips is DecreaseES with the exact set of vertices whose
// blocked state changed since the previous call, as known by the caller
// (the greedy loops flip one or two vertices per round). flips may contain
// duplicates; a vertex flipped twice (net no-op) only costs wasted
// reprocessing. An incomplete flips list silently corrupts the cache, so
// callers must report every mutation. Ignored (full scan) before priming.
func (e *IncrementalPooledEstimator) DecreaseESFlips(dst []float64, blocked []bool, flips []graph.V) {
	copy(dst[:e.pool.g.N()], e.decreaseES(blocked, flips, true))
}

// DecreaseESView is DecreaseES without the O(n) copy: the returned slice
// is the estimator's maintained Δ vector, valid (and read-only) until the
// next DecreaseES* call. The greedy argmax scans read it in place, which
// removes the last per-round O(n) term from the ReuseSamples fast path.
func (e *IncrementalPooledEstimator) DecreaseESView(blocked []bool) []float64 {
	return e.decreaseES(blocked, nil, false)
}

// DecreaseESFlipsView is DecreaseESFlips without the O(n) copy; see
// DecreaseESView for the aliasing contract.
func (e *IncrementalPooledEstimator) DecreaseESFlipsView(blocked []bool, flips []graph.V) []float64 {
	return e.decreaseES(blocked, flips, true)
}

// smallRoundInline is the dirty-sample count under which the round runs on
// the calling goroutine: spawning and joining worker goroutines costs more
// than a few dozen tiny dominator runs. The output bits do not depend on
// which path ran.
const smallRoundInline = 32

// claimChunk is the number of dirty samples a worker claims per cursor
// bump. Each claim costs more than the atomic: whichever worker claims a
// sample pulls its arena and contribution lines from the cache of the core
// that processed it last. On the serving benchmark (θ=10000, ~1400 dirty
// samples a round, 2 CPUs) chunks of 8 cost 9 % more server CPU per
// warm-reuse solve than per-worker sample ownership did, chunks of 32
// about 4 %. Larger chunks leave more of the round's tail on one worker.
const claimChunk = 32

// markDirty stages sample i for the next round, once.
func (e *IncrementalPooledEstimator) markDirty(i int32) {
	if !e.dirtyMark[i] {
		e.dirtyMark[i] = true
		e.dirtyList = append(e.dirtyList, i)
	}
}

func (e *IncrementalPooledEstimator) decreaseES(blocked []bool, flips []graph.V, haveFlips bool) []float64 {
	n := e.pool.g.N()
	theta := e.pool.Theta()
	e.rounds++

	// Phase 0 (serial): stage the round's dirty samples.
	switch {
	case !e.primed:
		for i := 0; i < theta; i++ {
			e.dirtyMark[i] = true
			e.dirtyList = append(e.dirtyList, int32(i))
		}
		e.primed = true
		if blocked == nil {
			for v := range e.prevBlocked {
				e.prevBlocked[v] = false
			}
		} else {
			copy(e.prevBlocked, blocked[:n])
		}
	case haveFlips:
		for _, v := range flips {
			nb := blocked != nil && blocked[v]
			if nb == e.prevBlocked[v] {
				continue // duplicate flip, net no-op
			}
			e.prevBlocked[v] = nb
			for _, i := range e.pool.SamplesContaining(v) {
				e.markDirty(i)
			}
		}
	default:
		for v := 0; v < n; v++ {
			nb := blocked != nil && blocked[v]
			if nb == e.prevBlocked[v] {
				continue
			}
			e.prevBlocked[v] = nb
			for _, i := range e.pool.SamplesContaining(graph.V(v)) {
				e.markDirty(i)
			}
		}
	}
	nDirty := len(e.dirtyList)
	if nDirty == 0 {
		return e.vals
	}
	e.reprocessed += int64(nDirty)

	// Phase 1: workers claim chunks of the dirty list through one shared
	// cursor. Tiny rounds run inline on worker 0; the result is the same
	// either way because every schedule folds the same exact integers.
	p := len(e.ws)
	parallel := p > 1 && nDirty > smallRoundInline
	if parallel {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range e.ws {
			wg.Add(1)
			go func(w *incWorker) {
				defer wg.Done()
				e.claim(w, &next, blocked)
			}(w)
		}
		wg.Wait()
	} else {
		e.processInto(e.ws[0], e.dirtyList, blocked)
	}

	// Phase 2: refresh the cached Δ vector at exactly the touched
	// vertices, clear the marks, and drain the round's staging. vals[u] =
	// float64(Σ_w acc_w[u])·θ⁻¹ — the same expression PooledEstimator
	// evaluates; int64 addition is exact, so the summation order is
	// immaterial to the bits. Large rounds run the reduction
	// range-partitioned in parallel: reducer r owns vertex range
	// [r·n/R, (r+1)·n/R) and is the only goroutine that touches marks,
	// union entries, or vals inside it, so the dedup needs no
	// synchronization and the output cannot depend on scheduling.
	totTouched := 0
	for _, w := range e.ws {
		totTouched += len(w.touched)
	}
	inv := 1 / float64(theta)
	if parallel && totTouched > 4*smallRoundInline {
		if cap(e.unionParts) < p {
			e.unionParts = append(e.unionParts, make([][]graph.V, p-len(e.unionParts))...)
		}
		parts := e.unionParts[:p]
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				vlo, vhi := graph.V(r*n/p), graph.V((r+1)*n/p)
				part := parts[r][:0]
				for _, w := range e.ws {
					for _, v := range w.touched {
						if v < vlo || v >= vhi {
							continue
						}
						w.marked[v] = false
						if !e.unionMark[v] {
							e.unionMark[v] = true
							part = append(part, v)
							e.vals[v] = float64(e.sumAcc(v)) * inv
						}
					}
				}
				for _, v := range part {
					e.unionMark[v] = false
				}
				parts[r] = part
			}(r)
		}
		wg.Wait()
	} else {
		union := e.union[:0]
		for _, w := range e.ws {
			for _, v := range w.touched {
				w.marked[v] = false
				if !e.unionMark[v] {
					e.unionMark[v] = true
					union = append(union, v)
					e.vals[v] = float64(e.sumAcc(v)) * inv
				}
			}
		}
		for _, v := range union {
			e.unionMark[v] = false
		}
		e.union = union
	}
	for _, w := range e.ws {
		w.touched = w.touched[:0]
	}
	for _, i := range e.dirtyList {
		e.dirtyMark[i] = false
	}
	e.dirtyList = e.dirtyList[:0]
	return e.vals
}

// sumAcc returns Σ_w acc_w[v].
func (e *IncrementalPooledEstimator) sumAcc(v graph.V) int64 {
	var s int64
	for _, w := range e.ws {
		s += w.acc[v]
	}
	return s
}

// claim is one goroutine of the parallel phase: take chunks of the dirty
// list through the shared cursor next until the list is exhausted.
func (e *IncrementalPooledEstimator) claim(w *incWorker, next *atomic.Int64, blocked []bool) {
	n := int64(len(e.dirtyList))
	for {
		hi := next.Add(claimChunk)
		lo := hi - claimChunk
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		e.processInto(w, e.dirtyList[lo:hi], blocked)
	}
}

// processInto retracts each listed sample's cached contributions, recomputes
// its filtered dominator tree under the new blocker set, and caches the
// result — everything folded into worker w's own accumulator.
func (e *IncrementalPooledEstimator) processInto(w *incWorker, samples []int32, blocked []bool) {
	for _, i := range samples {
		base := e.pool.contribBase(int(i))
		old := int64(e.contribLen[i])
		for j := base; j < base+old; j++ {
			w.add(e.contribVert[j], -int64(e.contribSize[j]))
		}

		e.pool.view(int(i), &w.sview)
		forig, sizes := w.dominateSample(&w.sview, blocked, e.domAlgo)
		e.contribLen[i] = int32(len(forig) - 1)
		for fl := 1; fl < len(forig); fl++ {
			v, sz := forig[fl], sizes[fl]
			e.contribVert[base+int64(fl-1)] = v
			e.contribSize[base+int64(fl-1)] = sz
			w.add(v, int64(sz))
		}
	}
}

// dominateSample computes per-vertex dominator-subtree sizes for one stored
// sample under the current blocker set. When the sample contains no blocked
// vertex — every priming-round sample, and dirty samples whose flips were
// all unblocks — the sample CSR already is the flow graph, so the filter BFS
// and CSR rebuild are skipped and the dominator computation runs straight
// off the view. Dominator trees are unique per flow graph, so both paths
// return identical (vertex, size) contributions.
func (st *filterScratch) dominateSample(s *sampleView, blocked []bool, domAlgo DomAlgo) ([]graph.V, []int32) {
	if blocked != nil {
		for _, v := range s.orig {
			if blocked[v] {
				return st.filterAndDominate(s, blocked, domAlgo)
			}
		}
	}
	fg := dominator.FlowGraph{N: len(s.orig), OutStart: s.outStart, OutTo: s.outTo, InStart: s.inStart, InTo: s.inTo}
	return s.orig, st.runDominators(&fg, domAlgo)
}

// RepairPool swaps in a repaired pool (SamplePool.Repair) while keeping the
// estimator warm: the contribution cache of every clean sample is relocated
// to its new arena offset, while each redrawn sample's cached contributions
// are retracted from the accumulators and the sample is staged dirty, so
// the next DecreaseES call recomputes exactly the redrawn samples under the
// new topology. The maintained state then equals — bit for bit — that of an
// estimator built fresh on the repaired pool and primed with the same
// blocker history, which is what keeps warm solves warm across mutations.
//
// newPool must come from a Repair of the estimator's current pool (same θ,
// same streams) with dirty as the returned redrawn-sample list; the vertex
// count may only have grown. Must not be called concurrently with
// DecreaseES; back-to-back repairs without an intervening DecreaseES
// compose correctly.
func (e *IncrementalPooledEstimator) RepairPool(newPool *SamplePool, dirty []int32) {
	old := e.pool
	if newPool.Theta() != old.Theta() {
		panic("core: RepairPool with mismatched theta")
	}
	if n := newPool.g.N(); n > len(e.vals) {
		grow := n - len(e.vals)
		e.vals = append(e.vals, make([]float64, grow)...)
		e.prevBlocked = append(e.prevBlocked, make([]bool, grow)...)
		e.unionMark = append(e.unionMark, make([]bool, grow)...)
		for _, w := range e.ws {
			// Re-allocate through the aligned constructors: a plain append
			// would land the grown arrays wherever the allocator likes,
			// silently losing the cache-line alignment the workers'
			// accumulators depend on.
			acc := alignedInt64(n)
			copy(acc, w.acc)
			w.acc = acc
			marked := alignedBools(n)
			copy(marked, w.marked)
			w.marked = marked
		}
	}
	if !e.primed {
		// No cached contributions to relocate; the priming round draws
		// everything from the new pool anyway.
		e.pool = newPool
		tv := newPool.totalVertEntries()
		e.contribVert = make([]graph.V, tv)
		e.contribSize = make([]int32, tv)
		return
	}
	isDirty := make([]bool, old.Theta())
	for _, i := range dirty {
		isDirty[i] = true
	}
	tv := newPool.totalVertEntries()
	nv := make([]graph.V, tv)
	ns := make([]int32, tv)
	w0 := e.ws[0]
	for i := 0; i < old.Theta(); i++ {
		if isDirty[i] {
			base := old.contribBase(i)
			for j := base; j < base+int64(e.contribLen[i]); j++ {
				w0.add(e.contribVert[j], -int64(e.contribSize[j]))
			}
			// Zero length: processInto must not retract these again when it
			// recomputes the sample next round.
			e.contribLen[i] = 0
			e.markDirty(int32(i))
			continue
		}
		ob, nb := old.contribBase(i), newPool.contribBase(i)
		l := int64(e.contribLen[i])
		copy(nv[nb:nb+l], e.contribVert[ob:ob+l])
		copy(ns[nb:nb+l], e.contribSize[ob:ob+l])
	}
	e.contribVert, e.contribSize = nv, ns
	e.pool = newPool
}

// IncrementalStats reports the estimator's lifetime work counters.
type IncrementalStats struct {
	// Rounds is the number of DecreaseES calls answered.
	Rounds int64
	// SamplesReprocessed is the total number of dirty samples recomputed;
	// a full re-scan per round would make this Rounds × Theta.
	SamplesReprocessed int64
}

// Stats returns the work counters. Call between DecreaseES calls.
func (e *IncrementalPooledEstimator) Stats() IncrementalStats {
	return IncrementalStats{Rounds: e.rounds, SamplesReprocessed: e.reprocessed}
}

// MemoryBytes reports the pool plus the estimator's own resident footprint:
// cached value vector, contribution arena, previous-blocker mask, staging
// buffers, and the per-worker state — the O(n) accumulator and mark arrays
// plus the filter and dominator scratch grown during processing. On large
// graphs at high worker counts the per-worker state dwarfs the arena
// itself, which is why SetWorkers is worth calling downward too.
func (e *IncrementalPooledEstimator) MemoryBytes() int64 {
	total := e.pool.MemoryBytes() +
		int64(len(e.vals))*8 +
		int64(len(e.contribVert))*4 + int64(len(e.contribSize))*4 +
		int64(len(e.contribLen))*4 +
		int64(len(e.prevBlocked)) + int64(len(e.dirtyMark)) +
		int64(cap(e.dirtyList))*4 +
		int64(len(e.unionMark)) + int64(cap(e.union))*4
	for _, part := range e.unionParts {
		total += int64(cap(part)) * 4
	}
	for _, w := range e.ws {
		total += int64(cap(w.acc))*8 + int64(cap(w.marked)) +
			int64(cap(w.touched))*4 + w.memoryBytes()
	}
	return total
}
