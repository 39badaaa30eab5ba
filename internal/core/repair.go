package core

import (
	"sync"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
)

// RepairSetLT widens a mutation batch's changed-sources set into the dirty
// criterion Repair needs under the LT diffusion model. An LT replay draws
// each inspected vertex v's trigger choice from v's in-row, and v is
// inspected whenever any in-neighbor of v (in the pre-mutation graph old)
// is reached — whether or not v itself ends up in the sample. A sample
// containing no changed source and no old in-neighbor of a changed target
// therefore iterates identical out-rows and draws identical triggers, so
// the returned set — sources ∪ old-graph in-neighbors of every vertex whose
// in-row changed — is a sound criterion. (In-neighbors added by this very
// batch have changed out-rows, so they are already sources.)
func RepairSetLT(old *graph.Graph, changedSources, changedTargets []graph.V) []graph.V {
	seen := make(map[graph.V]struct{}, len(changedSources))
	out := make([]graph.V, 0, len(changedSources))
	add := func(v graph.V) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, v := range changedSources {
		add(v)
	}
	for _, v := range changedTargets {
		if v < 0 || int(v) >= old.N() {
			continue // a brand-new vertex is inspected only via new sources
		}
		for _, u := range old.InNeighbors(v) {
			add(u)
		}
	}
	return out
}

// Repair rebuilds the pool against a mutated graph without redrawing every
// sample. sampler must be a live sampler over the new graph (same diffusion
// model and source vertex-id space as the pool's; vertex ids stable, vertex
// count may only have grown); changed is the dirty criterion: a vertex set
// such that any sample whose rng replay could diverge on the new graph
// contains at least one of its members. For IC samples that set is exactly
// the vertices whose out-adjacency changed (coins are flipped only at
// reached vertices' out-rows); LT trigger draws additionally read the
// in-rows of inspected-but-not-necessarily-reached vertices, so LT callers
// must widen the set with RepairSetLT.
//
// The repaired pool is bit-identical to NewSamplePool over the new graph
// with the pool's original rng base: sample i is the deterministic replay of
// stream base.Split(i) against the graph, and by the criterion above that
// replay only diverges if the sample contains a changed vertex. Those
// samples — found through the inverted index — are redrawn from their
// original streams; every other sample's coin sequence is untouched, so its
// bytes are copied straight from the old arena. Cost: O(dirty samples · m̄ /
// workers) for the redraw plus one O(arena) copy pass, against O(θ · m̄ /
// workers) for a full rebuild.
//
// The second return value lists the redrawn sample ids, ascending — the
// exact set a pool-backed incremental estimator must mark dirty
// (IncrementalPooledEstimator.RepairPool) to stay consistent. p itself is
// immutable and remains valid. workers <= 0 selects GOMAXPROCS.
func (p *SamplePool) Repair(sampler cascade.LiveSampler, changed []graph.V, workers int) (*SamplePool, []int32) {
	theta := p.Theta()
	oldN := p.g.N()
	newG := sampler.Graph()

	mark := make([]bool, theta)
	nDirty := 0
	for _, v := range changed {
		if v < 0 || int(v) >= oldN {
			continue // vertices added after the draw appear in no stored sample
		}
		for _, i := range p.SamplesContaining(v) {
			if !mark[i] {
				mark[i] = true
				nDirty++
			}
		}
	}
	dirty := make([]int32, 0, nDirty)
	for i := 0; i < theta; i++ {
		if mark[i] {
			dirty = append(dirty, int32(i))
		}
	}

	if nDirty == 0 {
		// Every sample replays identically: share the (immutable) arena and
		// rebind the graph. The index is per-vertex and must cover new ids.
		q := &SamplePool{
			g: newG, src: p.src, base: p.base,
			vertStart: p.vertStart, edgeStart: p.edgeStart,
			vertOrig: p.vertOrig, csrStart: p.csrStart, edgeTo: p.edgeTo,
			csrInStart: p.csrInStart, inFrom: p.inFrom,
		}
		if newG.N() == oldN {
			q.idxStart, q.idxSample = p.idxStart, p.idxSample
		} else {
			q.buildIndex(poolWorkers(workers, theta))
		}
		return q, dirty
	}

	// Phase 1: redraw the dirty samples in parallel, each from its original
	// per-sample stream against the new graph, through the same drawShard
	// append body NewSamplePool uses — so the bytes match a from-scratch
	// draw by construction.
	w := poolWorkers(workers, nDirty)
	shards := make([]drawShard, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := s*nDirty/w, (s+1)*nDirty/w
		wg.Add(1)
		go func(sh *drawShard, lo, hi int) {
			defer wg.Done()
			ws := sampler.NewWorkspace()
			for j := lo; j < hi; j++ {
				sh.appendSample(sampler.Sample(p.src, nil, p.base.Split(uint64(dirty[j])), ws))
			}
		}(&shards[s], lo, hi)
	}
	wg.Wait()

	// Where each dirty sample's data sits inside its shard's buffers.
	type loc struct {
		sh         *drawShard
		vs, es, ci int64 // vertex, edge, and csr offsets into the shard
		k, e       int32
	}
	locs := make([]loc, nDirty)
	pos := 0
	for s := range shards {
		sh := &shards[s]
		var vs, es, ci int64
		for j := range sh.ks {
			locs[pos] = loc{sh: sh, vs: vs, es: es, ci: ci, k: sh.ks[j], e: sh.es[j]}
			vs += int64(sh.ks[j])
			es += int64(sh.es[j])
			ci += int64(sh.ks[j]) + 1
			pos++
		}
	}
	posOf := make([]int32, theta) // sample id → dirty position, valid when mark[i]
	for di, i := range dirty {
		posOf[i] = int32(di)
	}

	// Phase 2: new arena offsets — dirty samples change size, so the whole
	// prefix structure is recomputed.
	q := &SamplePool{
		g: newG, src: p.src, base: p.base,
		vertStart: make([]int64, theta+1), edgeStart: make([]int64, theta+1),
	}
	var tv, te int64
	for i := 0; i < theta; i++ {
		q.vertStart[i], q.edgeStart[i] = tv, te
		if mark[i] {
			l := &locs[posOf[i]]
			tv += int64(l.k)
			te += int64(l.e)
		} else {
			tv += p.vertStart[i+1] - p.vertStart[i]
			te += p.edgeStart[i+1] - p.edgeStart[i]
		}
	}
	q.vertStart[theta], q.edgeStart[theta] = tv, te
	q.vertOrig = make([]graph.V, tv)
	q.csrStart = make([]int32, tv+int64(theta))
	q.edgeTo = make([]int32, te)
	q.csrInStart = make([]int32, tv+int64(theta))
	q.inFrom = make([]int32, te)

	// Phase 3: parallel copy — clean samples from the old arena, dirty ones
	// from the shard buffers. Per-sample content is fixed, so the result
	// does not depend on the partition.
	cw := poolWorkers(workers, theta)
	for s := 0; s < cw; s++ {
		lo, hi := s*theta/cw, (s+1)*theta/cw
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				vs, k := q.vertStart[i], q.vertStart[i+1]-q.vertStart[i]
				es, e := q.edgeStart[i], q.edgeStart[i+1]-q.edgeStart[i]
				cs := vs + int64(i)
				if mark[i] {
					l := &locs[posOf[i]]
					copy(q.vertOrig[vs:vs+k], l.sh.orig[l.vs:l.vs+int64(l.k)])
					copy(q.csrStart[cs:cs+k+1], l.sh.csr[l.ci:l.ci+int64(l.k)+1])
					copy(q.edgeTo[es:es+e], l.sh.to[l.es:l.es+int64(l.e)])
					copy(q.csrInStart[cs:cs+k+1], l.sh.inCSR[l.ci:l.ci+int64(l.k)+1])
					copy(q.inFrom[es:es+e], l.sh.from[l.es:l.es+int64(l.e)])
				} else {
					ovs, oes := p.vertStart[i], p.edgeStart[i]
					ocs := ovs + int64(i)
					copy(q.vertOrig[vs:vs+k], p.vertOrig[ovs:ovs+k])
					copy(q.csrStart[cs:cs+k+1], p.csrStart[ocs:ocs+k+1])
					copy(q.edgeTo[es:es+e], p.edgeTo[oes:oes+e])
					copy(q.csrInStart[cs:cs+k+1], p.csrInStart[ocs:ocs+k+1])
					copy(q.inFrom[es:es+e], p.inFrom[oes:oes+e])
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	q.buildIndex(cw)
	return q, dirty
}
