package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// denseTestGraph builds a graph whose live-edge samples reach a sizable
// fraction of the vertices, so single-vertex flips dirty well over the
// inline threshold and the parallel claim path actually runs.
func denseTestGraph(n int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	bld := graph.NewBuilder(n)
	for i := 0; i < 6*n; i++ {
		bld.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(3))*0.2+0.2)
	}
	return bld.Build()
}

// TestReuseSamplesDeterministicAcrossWorkerCounts is the parallel
// reduction's headline guarantee: the same ReuseSamples instance solved at
// workers = 1, 2, 4, 8 returns byte-identical blocker sequences for both
// greedy algorithms. Pool content is worker-independent (per-sample rng
// streams) and the worker accumulators sum exactly, so the worker count
// must be invisible in the output.
func TestReuseSamplesDeterministicAcrossWorkerCounts(t *testing.T) {
	g := denseTestGraph(120, 9)
	seeds := []graph.V{3, 11}
	for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
		var want []graph.V
		for _, workers := range []int{1, 2, 4, 8} {
			opt := Options{Theta: 400, Seed: 5, Workers: workers, ReuseSamples: true}
			res, err := Solve(g, seeds, 6, alg, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, workers, err)
			}
			if want == nil {
				want = res.Blockers
				continue
			}
			if !reflect.DeepEqual(res.Blockers, want) {
				t.Errorf("%s workers=%d: blockers %v != workers=1 blockers %v", alg, workers, res.Blockers, want)
			}
		}
	}
}

// TestSessionWorkerCountChangeKeepsPool asserts the warm-session half of
// the guarantee: requests at different Options.Workers on one session
// reuse the same cached pool (SetWorkers rebuilds the workers, not the pool)
// and still return the cold-solve blockers.
func TestSessionWorkerCountChangeKeepsPool(t *testing.T) {
	g := denseTestGraph(120, 10)
	seeds := []graph.V{2, 7}
	base := Options{Theta: 300, Seed: 4, ReuseSamples: true}
	ctx := context.Background()

	optCold := base
	optCold.Workers = 1
	cold, err := Solve(g, seeds, 5, AdvancedGreedy, optCold)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(g, DiffusionIC, DomLengauerTarjan, 2)
	for _, workers := range []int{1, 4, 2, 8, 1} {
		opt := base
		opt.Workers = workers
		res, err := sess.Solve(ctx, seeds, 5, AdvancedGreedy, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Blockers, cold.Blockers) {
			t.Errorf("workers=%d: warm blockers %v != cold %v", workers, res.Blockers, cold.Blockers)
		}
	}
	st := sess.Stats()
	if st.PoolBuilds != 1 {
		t.Errorf("PoolBuilds = %d, want 1: changing the worker count must not invalidate the cached pool", st.PoolBuilds)
	}
	if st.PoolReuses != 4 {
		t.Errorf("PoolReuses = %d, want 4", st.PoolReuses)
	}
}

// TestWorkersExceedTheta pins the clamp: worker counts far above θ (and
// above the dirty count of every round) must behave exactly like a sane
// worker count, not panic or spawn idle workers with out-of-range sample
// slices.
func TestWorkersExceedTheta(t *testing.T) {
	g := denseTestGraph(60, 11)
	const theta = 5

	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 64, rng.New(2))
	if pool.Theta() != theta {
		t.Fatalf("Theta = %d, want %d", pool.Theta(), theta)
	}
	ref := NewSamplePool(cascade.NewIC(g), 0, theta, 1, rng.New(2))
	if !reflect.DeepEqual(pool.vertOrig, ref.vertOrig) || !reflect.DeepEqual(pool.edgeTo, ref.edgeTo) {
		t.Fatal("pool content differs between workers=64 and workers=1")
	}

	incr := NewIncrementalPooledEstimatorFromPool(pool, 64, DomLengauerTarjan)
	if got := len(incr.ws); got != theta {
		t.Fatalf("worker count = %d, want clamp to θ = %d", got, theta)
	}
	pooled := NewPooledEstimatorFromPool(pool, 64, DomLengauerTarjan)
	n := g.N()
	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	for round := 0; round < 4; round++ {
		incr.DecreaseES(dI, blocked)
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d: incremental != pooled under θ < workers", round)
		}
		blocked[round+1] = true
	}

	opt := Options{Theta: theta, Workers: 16, Seed: 3, ReuseSamples: true}
	if _, err := Solve(g, []graph.V{0}, 2, AdvancedGreedy, opt); err != nil {
		t.Fatalf("Solve with workers > theta: %v", err)
	}
}

// TestParallelDecreaseESFlipsMatchesPooled drives the parallel claim
// path (dirty counts far above the inline threshold) through a trajectory
// of blocks and unblocks and requires bit-identical output against the
// serial full re-scan at every step. Run under -race this is also the
// concurrency exercise for the claim queue and the parallel reduction.
func TestParallelDecreaseESFlipsMatchesPooled(t *testing.T) {
	g := denseTestGraph(150, 12)
	n := g.N()
	pool := NewSamplePool(cascade.NewIC(g), 0, 600, 4, rng.New(7))
	incr := NewIncrementalPooledEstimatorFromPool(pool, 4, DomLengauerTarjan)
	pooled := NewPooledEstimatorFromPool(pool, 1, DomLengauerTarjan)

	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	var flips []graph.V
	var trajectory []graph.V
	dirtyBefore := int64(0)
	sawParallelRound := false
	for round := 0; round < 16; round++ {
		incr.DecreaseESFlips(dI, blocked, flips)
		st := incr.Stats()
		if st.SamplesReprocessed-dirtyBefore > smallRoundInline {
			sawParallelRound = true
		}
		dirtyBefore = st.SamplesReprocessed
		flips = flips[:0]
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d: incremental != pooled", round)
		}
		if round%5 == 4 && len(trajectory) > 0 {
			u := trajectory[len(trajectory)-1]
			trajectory = trajectory[:len(trajectory)-1]
			blocked[u] = false
			flips = append(flips, u)
			continue
		}
		best := graph.V(-1)
		for v := graph.V(1); int(v) < n; v++ {
			if !blocked[v] && (best == -1 || dP[v] > dP[best]) {
				best = v
			}
		}
		blocked[best] = true
		flips = append(flips, best)
		trajectory = append(trajectory, best)
	}
	if !sawParallelRound {
		t.Error("no round exceeded the inline threshold; the parallel path was never exercised")
	}
}

// TestSetWorkersMidTrajectory changes a primed estimator's worker count
// between rounds — the warm-session pattern when consecutive requests ask
// for different worker counts — and requires the maintained state to survive exactly:
// every subsequent round must still match the full re-scan bit for bit.
func TestSetWorkersMidTrajectory(t *testing.T) {
	g := denseTestGraph(100, 13)
	n := g.N()
	pool := NewSamplePool(cascade.NewIC(g), 0, 350, 2, rng.New(5))
	incr := NewIncrementalPooledEstimatorFromPool(pool, 1, DomLengauerTarjan)
	pooled := NewPooledEstimatorFromPool(pool, 3, DomLengauerTarjan)

	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	schedule := []int{1, 4, 4, 2, 8, 1, 3}
	for round, workers := range schedule {
		incr.SetWorkers(workers)
		incr.DecreaseES(dI, blocked)
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d (workers=%d): incremental != pooled after SetWorkers", round, workers)
		}
		v := (round*13)%(n-1) + 1 // never flip the source
		blocked[v] = !blocked[v]
	}
}

// TestSkewedDirtyBatchBitIdentical stages a maximally skewed round — every
// dirty sample taken from one contiguous slice of the pool — at workers
// 1, 2, 4 and 8, and requires each estimator to produce exactly the full
// re-scan's values with the work accounting intact. Which worker claims
// which chunk depends on scheduling; the output may not.
func TestSkewedDirtyBatchBitIdentical(t *testing.T) {
	g := denseTestGraph(120, 31)
	const theta = 256
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(7))
	ref := NewPooledEstimatorFromPool(pool, 1, DomLengauerTarjan)
	counts := []int{1, 2, 4, 8}
	ests := make([]*IncrementalPooledEstimator, len(counts))
	for k, w := range counts {
		ests[k] = NewIncrementalPooledEstimatorFromPool(pool, w, DomLengauerTarjan)
	}

	n := g.N()
	blocked := make([]bool, n)
	want := make([]float64, n)
	got := make([]float64, n)
	check := func(what string) {
		t.Helper()
		ref.DecreaseES(want, blocked)
		for k, est := range ests {
			est.DecreaseES(got, blocked)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: workers=%d diverged from the full re-scan", what, counts[k])
			}
		}
	}
	check("priming")

	for round := 0; round < 4; round++ {
		// Stage the first quarter of the pool dirty — with unchanged
		// blocked the recompute is a no-op on the values, but the whole
		// batch is one arena-contiguous run the claim queue must split.
		for k, est := range ests {
			before := est.Stats()
			for i := 0; i < theta/4; i++ {
				est.markDirty(int32(i))
			}
			est.DecreaseESFlips(got, blocked, nil)
			after := est.Stats()
			if d := after.SamplesReprocessed - before.SamplesReprocessed; d != theta/4 {
				t.Fatalf("round %d workers=%d: reprocessed %d samples, staged %d", round, counts[k], d, theta/4)
			}
			ref.DecreaseES(want, blocked)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d workers=%d: skewed round diverged from the full re-scan", round, counts[k])
			}
		}

		// Now a real flip, verified against the reference.
		blocked[(round*11)%(n-1)+1] = true
		check("post-flip")
	}
}

// TestParallelReductionLargeRound forces the parallel range-partitioned
// reduction (large touched union, many workers) and checks bit-identity
// against the serial path round by round. Run under -race this is the test
// that exercises concurrent reducers scanning all workers' touched lists.
func TestParallelReductionLargeRound(t *testing.T) {
	g := denseTestGraph(400, 5)
	const theta = 300
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(11))
	inc8 := NewIncrementalPooledEstimatorFromPool(pool, 8, DomLengauerTarjan)
	inc1 := NewIncrementalPooledEstimatorFromPool(pool, 1, DomLengauerTarjan)

	n := g.N()
	blocked := make([]bool, n)
	d8 := make([]float64, n)
	d1 := make([]float64, n)
	for round := 0; round < 5; round++ {
		inc8.DecreaseES(d8, blocked)
		inc1.DecreaseES(d1, blocked)
		if !reflect.DeepEqual(d8, d1) {
			t.Fatalf("round %d: workers 8 diverged from workers 1", round)
		}
		// Flip a fresh vertex each round; the priming round and the dense
		// graph keep the touched union far above the inline threshold.
		blocked[(round*17)%(n-1)+1] = true
	}
	if st := inc8.Stats(); st.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", st.Rounds)
	}
}

// TestSkewedCascadeStealBitIdentical drives the estimator with the graph
// gengraph -skew generates — a few giant chain samples among hundreds of
// tiny ones, so per-chunk work is maximally unbalanced — at workers
// 1, 2, 4 and 8. Every worker count must stay bit-identical to the full
// re-scan through a greedy trajectory that keeps dirtying the giant
// samples, and must account for the same reprocessed work.
func TestSkewedCascadeStealBitIdentical(t *testing.T) {
	g := datasets.SkewedCascade(3000, 8, 0.1, 0.03, rng.New(21))
	pool := NewSamplePool(cascade.NewIC(g), 0, 400, 4, rng.New(22))
	ref := NewPooledEstimatorFromPool(pool, 1, DomLengauerTarjan)
	counts := []int{1, 2, 4, 8}
	ests := make([]*IncrementalPooledEstimator, len(counts))
	for k, w := range counts {
		ests[k] = NewIncrementalPooledEstimatorFromPool(pool, w, DomLengauerTarjan)
	}
	blocked := make([]bool, g.N())
	dR := make([]float64, g.N())
	dP := make([]float64, g.N())
	for round := 0; round < 6; round++ {
		ref.DecreaseES(dR, blocked)
		for k, est := range ests {
			est.DecreaseES(dP, blocked)
			if !reflect.DeepEqual(dR, dP) {
				t.Fatalf("round %d: workers=%d Δ vector differs from the full re-scan", round, counts[k])
			}
		}
		best := -1
		for v := range dR {
			if v != 0 && !blocked[v] && (best == -1 || dR[v] > dR[best]) {
				best = v
			}
		}
		blocked[best] = true
	}
	want := ests[0].Stats()
	for k, est := range ests[1:] {
		if st := est.Stats(); st != want {
			t.Fatalf("workers=%d stats %+v, workers=1 stats %+v", counts[k+1], st, want)
		}
	}
}

// TestPoolMemoryBytesAccountsEverything guards the /stats honesty contract:
// MemoryBytes must cover every backing array the pool retains — the
// arenas plus the inverted index — and the estimator's MemoryBytes must
// grow with the per-worker scratch priming brings into existence.
func TestPoolMemoryBytesAccountsEverything(t *testing.T) {
	g := denseTestGraph(100, 21)
	const theta = 200
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 2, rng.New(4))

	want := int64(len(pool.vertStart))*8 + int64(len(pool.edgeStart))*8 +
		int64(len(pool.vertOrig))*4 + int64(len(pool.csrStart))*4 + int64(len(pool.edgeTo))*4 +
		int64(len(pool.csrInStart))*4 + int64(len(pool.inFrom))*4 +
		int64(len(pool.idxStart))*8 + int64(len(pool.idxSample))*4
	if got := pool.MemoryBytes(); got < want {
		t.Errorf("MemoryBytes = %d, below the %d bytes of its own backing arrays", got, want)
	}

	est := NewIncrementalPooledEstimatorFromPool(pool, 2, DomLengauerTarjan)
	before := est.MemoryBytes()
	blocked := make([]bool, g.N())
	dst := make([]float64, g.N())
	est.DecreaseES(dst, blocked)
	if after := est.MemoryBytes(); after <= before {
		t.Errorf("estimator MemoryBytes did not grow after priming (%d -> %d); worker scratch unaccounted", before, after)
	}
}

// TestSumAccOrderIndependent guards the determinism of the worker
// reduction: any worker may fold any sample's deltas, so the accumulators
// only agree with the full re-scan because they are exact int64 counts.
// The reduction must equal a plain left-to-right sum for every worker
// count and must not care how the workers are ordered. If someone ever
// switches the accumulator to floating point, this fails.
func TestSumAccOrderIndependent(t *testing.T) {
	r := rng.New(99)
	for p := 1; p <= 9; p++ {
		ws := make([]*incWorker, p)
		for w := range ws {
			acc := make([]int64, 50)
			for v := range acc {
				acc[v] = int64(r.Intn(1<<20)) - 1<<19
			}
			ws[w] = &incWorker{acc: acc}
		}
		e := &IncrementalPooledEstimator{ws: ws}
		rev := &IncrementalPooledEstimator{ws: make([]*incWorker, p)}
		for w := range ws {
			rev.ws[p-1-w] = ws[w]
		}
		for v := graph.V(0); v < 50; v++ {
			var serial int64
			for _, w := range ws {
				serial += w.acc[v]
			}
			if got := e.sumAcc(v); got != serial {
				t.Fatalf("p=%d v=%d: reduction %d != serial sum %d", p, v, got, serial)
			}
			if got := rev.sumAcc(v); got != serial {
				t.Fatalf("p=%d v=%d: reversed reduction %d != serial sum %d", p, v, got, serial)
			}
		}
	}
}
