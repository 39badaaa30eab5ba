package main

import (
	"fmt"
	"math"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// The serving graph and request shape every workload shares. The solve
// parameters are the daemon's defaults, sent explicitly so a change of
// default cannot silently change the benchmark.
const (
	graphN         = 20000
	edgesPerVertex = 5
	seedsPerSet    = 10
	budget         = 10
	theta          = 10000
	evalRounds     = 2000
	algorithm      = "greedy-replace"
	model          = "IC"
	// solveWorkers is pinned because fresh sampling and the Monte-Carlo
	// spread report draw their rng streams per worker.
	solveWorkers = 2
	// warmSets is the number of rotating seed sets of the warm workloads.
	// It must not exceed the core session's instance cache (4): with more
	// sets the "warm" workload silently thrashes.
	warmSets = 4
	// batchOps is the size of one mutation batch.
	batchOps = 20
)

// trProbs are the trivalency probabilities the graph is generated with;
// set-prob mutations move an edge to another value of the same set.
var trProbs = [...]float64{0.1, 0.01, 0.001}

// workload is one traffic mix. Every run of a workload sends the same
// number of requests, opsPerSecond × --seconds, so the work measured never
// depends on how fast the machine happens to be.
type workload struct {
	name string
	// reuse sends reuse_samples:true; fresh draws a new seed set for every
	// solve instead of rotating the warm sets; mutate puts a mutation batch
	// before every solve; durable runs the daemon with -data-dir.
	reuse, fresh, mutate, durable bool
	// opsPerSecond is the nominal closed-loop rate on the reference machine
	// (2 CPUs); it only converts --seconds into a request count.
	opsPerSecond float64
}

var workloads = []workload{
	// The warm path: session and pool hits, incremental rounds and the
	// spread report, on 4 rotating seed sets.
	{name: "warm-reuse", reuse: true, opsPerSecond: 60},
	// The paper's AG/GR path: every request unifies a new seed set and
	// draws θ fresh samples and dominator trees per round.
	{name: "cold-fresh", fresh: true, opsPerSecond: 6},
	// Writes beside reads: overlay commit, WAL append and eager Advance
	// repair, alternating with warm solves.
	{name: "mutate-mix", reuse: true, mutate: true, durable: true, opsPerSecond: 6},
}

// setupsPerRun is how many times a run sets the daemon up; setup_s is the
// median of their times.
const setupsPerRun = 5

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedOps converts the run length into the workload's request count:
// always at least enough solves that solve_p90_ms has minTail samples
// beyond it, and an even count on mutate-mix so mutates and solves pair up.
func (w workload) timedOps(seconds int) int {
	n := int(math.Round(w.opsPerSecond * float64(seconds)))
	perSolve := 1
	if w.mutate {
		perSolve = 2
	}
	for samplesBeyond(n/perSolve, 90) < minTail {
		n += perSolve
	}
	return n - n%perSolve
}

// opKind distinguishes the two request types.
type opKind int

const (
	opSolve opKind = iota
	opMutate
)

// op is one request of a run.
type op struct {
	kind opKind
	// Solve fields: the seed set and the request's rng seed.
	seeds []int
	seed  uint64
	// Mutate field: the batch.
	batch []dynamic.Mutation
}

// plan is everything a run sends, derived from the workload seed alone.
type plan struct {
	g      *graph.Graph
	warmup []op // untimed, part of set-up
	ops    []op // timed
}

// servingGraph generates the benchmark's serving graph: preferential
// attachment, n=20000, 5 edges per vertex, directed, trivalency
// probabilities.
func servingGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	g := datasets.PreferentialAttachment(graphN, edgesPerVertex, true, r.Split(1))
	return graph.Trivalency.Assign(g, r.Split(2))
}

// catalogSeed fixes the serving graph and the warm seed sets. The workload
// seed draws everything else: the request rng seeds, the fresh seed sets
// and the mutation batches. With the warm sets drawn from the workload seed
// too, which 4 sets a run got decided its warm latency (interquartile
// range 30-38% of the median over 5 seeds), so no bound could hold.
const catalogSeed = 1

// makePlan derives a run's requests from the workload seed: the same
// (workload, seed, n) always gives the same graph and requests.
func makePlan(w workload, seed uint64, n int) (*plan, error) {
	g := servingGraph(catalogSeed)
	setRNG := rng.New(catalogSeed).Split(3)
	r := rng.New(seed)
	seedRNG, mutRNG := r.Split(3), r.Split(4)
	p := &plan{g: g}

	newSet := func(from *rng.Source) (op, error) {
		s, err := datasets.RandomSeeds(g, seedsPerSet, true, from)
		if err != nil {
			return op{}, err
		}
		ids := make([]int, len(s))
		for i, v := range s {
			ids[i] = int(v)
		}
		return op{kind: opSolve, seeds: ids, seed: seedRNG.Uint64()}, nil
	}

	if w.fresh {
		// Two untimed cold solves let the daemon's heap and scratch reach
		// their working size before timing starts.
		for range 2 {
			o, err := newSet(seedRNG)
			if err != nil {
				return nil, err
			}
			p.warmup = append(p.warmup, o)
		}
		for range n {
			o, err := newSet(seedRNG)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, o)
		}
		return p, nil
	}

	// Warm workloads: one untimed solve per set builds its instance and,
	// with reuse, its sample pool.
	for range warmSets {
		o, err := newSet(setRNG)
		if err != nil {
			return nil, err
		}
		p.warmup = append(p.warmup, o)
	}
	edges := newEdgeModel(g)
	solves := 0
	for len(p.ops) < n {
		if w.mutate {
			p.ops = append(p.ops, op{kind: opMutate, batch: edges.batch(mutRNG, batchOps)})
		}
		p.ops = append(p.ops, p.warmup[solves%warmSets])
		solves++
	}
	return p, nil
}

// edgeKey packs a directed edge.
type edgeKey struct{ u, v graph.V }

// edgeModel tracks the client's view of the graph's edge set, so every
// mutation batch it draws is valid against the graph the daemon holds.
type edgeModel struct {
	present []edgeKey
	pos     map[edgeKey]int // index into present
	prob    map[edgeKey]float64
	removed []edgeKey // removed by an earlier batch, available to re-add
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{pos: make(map[edgeKey]int, g.M()), prob: make(map[edgeKey]float64, g.M())}
	for u := graph.V(0); int(u) < g.N(); u++ {
		ps := g.OutProbs(u)
		for i, v := range g.OutNeighbors(u) {
			e := edgeKey{u, v}
			m.pos[e] = len(m.present)
			m.present = append(m.present, e)
			m.prob[e] = ps[i]
		}
	}
	return m
}

// take removes a uniformly drawn present edge from the present set.
func (m *edgeModel) take(r *rng.Source) edgeKey {
	i := r.Intn(len(m.present))
	e := m.present[i]
	last := m.present[len(m.present)-1]
	m.present[i] = last
	m.pos[last] = i
	m.present = m.present[:len(m.present)-1]
	delete(m.pos, e)
	return e
}

func (m *edgeModel) put(e edgeKey) {
	m.pos[e] = len(m.present)
	m.present = append(m.present, e)
}

// batch draws one valid batch of size operations, a third each of
// set-prob, remove-edge and re-add of an edge an earlier batch removed
// (set-prob fills in while too few removed edges exist). No edge appears
// twice in a batch, so every operation is valid whatever the order.
func (m *edgeModel) batch(r *rng.Source, size int) []dynamic.Mutation {
	nRemove := size / 3
	nReadd := min(size/3, len(m.removed))
	nSet := size - nRemove - nReadd
	out := make([]dynamic.Mutation, 0, size)
	var touched, gone []edgeKey
	for range nSet {
		e := m.take(r)
		touched = append(touched, e)
		p := m.prob[e]
		np := trProbs[r.Intn(len(trProbs))]
		for np == p {
			np = trProbs[r.Intn(len(trProbs))]
		}
		m.prob[e] = np
		out = append(out, dynamic.Mutation{Op: dynamic.OpSetProb, U: e.u, V: e.v, P: np})
	}
	for range nRemove {
		e := m.take(r)
		gone = append(gone, e)
		out = append(out, dynamic.Mutation{Op: dynamic.OpRemoveEdge, U: e.u, V: e.v})
	}
	for range nReadd {
		i := r.Intn(len(m.removed))
		e := m.removed[i]
		m.removed[i] = m.removed[len(m.removed)-1]
		m.removed = m.removed[:len(m.removed)-1]
		touched = append(touched, e)
		out = append(out, dynamic.Mutation{Op: dynamic.OpAddEdge, U: e.u, V: e.v, P: m.prob[e]})
	}
	for _, e := range touched {
		m.put(e)
	}
	m.removed = append(m.removed, gone...)
	return out
}
