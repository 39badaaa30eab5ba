// Package datasets provides the evaluation graphs. The paper uses 8 SNAP
// datasets (Table IV); this module is built offline, so the package ships
// synthetic generators that reproduce each dataset's direction, scale,
// average degree and heavy-tailed degree distribution instead (see
// DESIGN.md §4 for the substitution rationale), plus loaders so that real
// SNAP files can be dropped in when available.
package datasets

import (
	"fmt"
	"math"
	"sort"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// PreferentialAttachment generates a Barabási–Albert-style graph with n
// vertices and roughly edgesPerVertex·n edges. Each arriving vertex
// attaches to existing vertices chosen proportionally to their current
// degree, which yields the power-law degree tail characteristic of the
// paper's social networks. edgesPerVertex may be fractional — the
// fractional part attaches probabilistically.
//
// When directed, each attachment edge is oriented uniformly at random
// (new→old or old→new), giving heavy in- and out-degree tails; otherwise
// both directions are added. Probabilities are set to 1; callers assign a
// propagation model afterwards.
func PreferentialAttachment(n int, edgesPerVertex float64, directed bool, r *rng.Source) *graph.Graph {
	if n < 2 {
		panic("datasets: PreferentialAttachment needs n >= 2")
	}
	if edgesPerVertex < 0 {
		panic("datasets: negative edgesPerVertex")
	}
	b := graph.NewBuilder(n)
	// targets holds one entry per unit of degree: uniform sampling from it
	// is degree-proportional sampling.
	targets := make([]graph.V, 0, int(2*edgesPerVertex*float64(n))+4)

	addEdge := func(u, v graph.V) {
		if directed {
			if r.Bernoulli(0.5) {
				u, v = v, u
			}
			b.AddEdge(u, v, 1)
		} else {
			b.AddUndirected(u, v, 1)
		}
		targets = append(targets, u, v)
	}

	// Seed the process with an edge between the first two vertices.
	addEdge(0, 1)

	whole := int(edgesPerVertex)
	frac := edgesPerVertex - float64(whole)
	for v := graph.V(2); int(v) < n; v++ {
		k := whole
		if r.Bernoulli(frac) {
			k++
		}
		if k < 1 {
			// Keep the graph connected-ish even in ultra-sparse regimes:
			// every vertex attaches at least once.
			k = 1
		}
		for e := 0; e < k; e++ {
			// Preferential pick with a few retries to avoid self/duplicate
			// attachments; the builder merges any survivors.
			var u graph.V
			for attempt := 0; ; attempt++ {
				u = targets[r.Intn(len(targets))]
				if u != v || attempt >= 3 {
					break
				}
			}
			if u == v {
				continue
			}
			addEdge(v, u)
		}
	}
	return b.Build()
}

// ErdosRenyi generates a G(n, m) random graph with m directed edges chosen
// uniformly (undirected graphs get m/2 undirected edges). Degree
// distribution is binomial — the light-tailed contrast case for ablations.
func ErdosRenyi(n, m int, directed bool, r *rng.Source) *graph.Graph {
	if n < 2 {
		panic("datasets: ErdosRenyi needs n >= 2")
	}
	b := graph.NewBuilder(n)
	pairs := m
	if !directed {
		pairs = m / 2
	}
	for i := 0; i < pairs; i++ {
		u := graph.V(r.Intn(n))
		v := graph.V(r.Intn(n))
		if u == v {
			continue
		}
		if directed {
			b.AddEdge(u, v, 1)
		} else {
			b.AddUndirected(u, v, 1)
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world ring lattice with n vertices, k
// neighbors per side, and rewiring probability beta. High clustering and
// short paths; used by the community-structured examples.
func WattsStrogatz(n, k int, beta float64, r *rng.Source) *graph.Graph {
	if n < 2*k+1 {
		panic("datasets: WattsStrogatz needs n > 2k")
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			w := (v + j) % n
			if r.Bernoulli(beta) {
				// Rewire to a uniform random target.
				for tries := 0; tries < 8; tries++ {
					cand := r.Intn(n)
					if cand != v && cand != w {
						w = cand
						break
					}
				}
			}
			b.AddUndirected(graph.V(v), graph.V(w), 1)
		}
	}
	return b.Build()
}

// PowerLawConfiguration generates a graph whose out-degrees follow a
// discrete power law with the given exponent (typically 2–3) and maximum
// degree cap, wired by the directed configuration model: out-stubs connect
// to uniformly random vertices. It offers direct control over the degree
// exponent for ablation studies.
func PowerLawConfiguration(n int, exponent float64, maxDeg int, directed bool, r *rng.Source) *graph.Graph {
	if n < 2 {
		panic("datasets: PowerLawConfiguration needs n >= 2")
	}
	if exponent <= 1 {
		panic("datasets: power-law exponent must exceed 1")
	}
	if maxDeg >= n {
		maxDeg = n - 1
	}
	// Inverse-CDF sampling of P(d) ∝ d^(-exponent), d in [1, maxDeg].
	cdf := make([]float64, maxDeg)
	total := 0.0
	for d := 1; d <= maxDeg; d++ {
		total += pow(float64(d), -exponent)
		cdf[d-1] = total
	}
	sampleDeg := func() int {
		x := r.Float64() * total
		lo, hi := 0, maxDeg-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo + 1
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		d := sampleDeg()
		for e := 0; e < d; e++ {
			w := graph.V(r.Intn(n))
			if w == graph.V(v) {
				continue
			}
			if directed {
				b.AddEdge(graph.V(v), w, 1)
			} else {
				b.AddUndirected(graph.V(v), w, 1)
			}
		}
	}
	return b.Build()
}

// pow aliases math.Pow; only positive arguments occur here.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// SkewedCascade builds a graph engineered for heavy-tailed live-edge
// sample sizes — the regime that skews per-sample estimator work, so a
// parallel incremental round's claimed chunks differ wildly in cost. Vertex 0 is a gateway holding one pHot-probability edge
// to the head of each of `chains` chains; chain c is a run of always-live
// (probability 1) edges whose length follows a 1/(c+1) power law over the
// non-gateway vertices, so chain 0 alone spans a constant fraction of the
// graph. A cascade from the gateway therefore includes chain c exactly
// when that one gateway coin fires: sample sizes jump between O(1) and
// O(n), heavy-tailed by construction rather than by asymptotics. Every
// vertex also gets a sparse pBg-probability background edge to a uniform
// target so samples are not pure paths.
//
// Sampling from vertex 0 (or seeding near it) with the IC model produces
// pools where a handful of samples dominate the per-round work — the input
// that tests and benchmarks use to check that the parallel round stays
// bit-identical under unbalanced load.
func SkewedCascade(n, chains int, pHot, pBg float64, r *rng.Source) *graph.Graph {
	if n < 2 {
		panic("datasets: SkewedCascade needs n >= 2")
	}
	if chains < 1 {
		chains = 1
	}
	if chains > n-1 {
		chains = n - 1
	}
	// Zipf chain lengths over the n-1 non-gateway vertices: weight of chain
	// c is 1/(c+1). Remainders go to the earliest chains, so every chain
	// has at least its head.
	weights := make([]float64, chains)
	total := 0.0
	for c := 0; c < chains; c++ {
		weights[c] = 1 / float64(c+1)
		total += weights[c]
	}
	avail := n - 1
	lengths := make([]int, chains)
	used := 0
	for c := 0; c < chains; c++ {
		lengths[c] = int(weights[c] / total * float64(avail))
		if lengths[c] < 1 {
			lengths[c] = 1
		}
		used += lengths[c]
	}
	for c := 0; used > avail; c = (c + 1) % chains {
		// Ultra-small n can overshoot by the minimums; trim the long end.
		if lengths[c] > 1 {
			lengths[c]--
			used--
		}
	}
	lengths[0] += avail - used

	b := graph.NewBuilder(n)
	next := graph.V(1)
	for c := 0; c < chains; c++ {
		head := next
		b.AddEdge(0, head, pHot)
		for i := 1; i < lengths[c]; i++ {
			b.AddEdge(next, next+1, 1)
			next++
		}
		next++
	}
	if pBg > 0 {
		for v := 0; v < n; v++ {
			w := graph.V(r.Intn(n))
			if w != graph.V(v) {
				b.AddEdge(graph.V(v), w, pBg)
			}
		}
	}
	return b.Build()
}

// RandomSeeds draws count distinct seed vertices uniformly at random,
// following the evaluation setup ("randomly select 10 vertices as the
// seeds"). When requireOut is true only vertices with at least one
// out-edge qualify, so sparse graphs still produce non-trivial cascades.
func RandomSeeds(g *graph.Graph, count int, requireOut bool, r *rng.Source) ([]graph.V, error) {
	var pool []graph.V
	for v := graph.V(0); int(v) < g.N(); v++ {
		if !requireOut || g.OutDegree(v) > 0 {
			pool = append(pool, v)
		}
	}
	if count > len(pool) {
		return nil, fmt.Errorf("datasets: want %d seeds but only %d eligible vertices", count, len(pool))
	}
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return append([]graph.V(nil), pool[:count]...), nil
}

// TopOutDegreeSeeds returns the count vertices with the highest out-degree
// (ties by smaller id) — the "influential sources" seeding used to stress
// worst-case misinformation scenarios, complementing the paper's uniform
// RandomSeeds.
func TopOutDegreeSeeds(g *graph.Graph, count int) ([]graph.V, error) {
	if count > g.N() {
		return nil, fmt.Errorf("datasets: want %d seeds but graph has %d vertices", count, g.N())
	}
	seeds := make([]graph.V, g.N())
	for i := range seeds {
		seeds[i] = graph.V(i)
	}
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.OutDegree(seeds[i]), g.OutDegree(seeds[j])
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})
	return seeds[:count], nil
}

// ExtractNeighborhood implements the paper's small-instance extraction for
// the optimality experiments (Tables V/VI): starting from start, repeatedly
// add a frontier vertex and all its neighbors (both directions) until at
// least target vertices are collected, then return the induced subgraph and
// the mapping from new ids to old ids. start maps to new id 0.
func ExtractNeighborhood(g *graph.Graph, start graph.V, target int) (*graph.Graph, []graph.V) {
	if target < 1 {
		target = 1
	}
	in := make([]bool, g.N())
	var keep []graph.V
	add := func(v graph.V) {
		if !in[v] {
			in[v] = true
			keep = append(keep, v)
		}
	}
	add(start)
	for qi := 0; qi < len(keep) && len(keep) < target; qi++ {
		v := keep[qi]
		for _, w := range g.OutNeighbors(v) {
			if len(keep) >= target {
				break
			}
			add(w)
		}
		for _, w := range g.InNeighbors(v) {
			if len(keep) >= target {
				break
			}
			add(w)
		}
	}
	return g.InducedSubgraph(keep)
}
