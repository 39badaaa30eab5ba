package main

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/dynamic"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
	// Nearest rank never interpolates: p50 of four samples is the second.
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}

func TestSamplesBeyondP90(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {110, 11}, {10, 1}, {1, 0}} {
		if got := samplesBeyond(c.n, 90); got != c.want {
			t.Errorf("samplesBeyond(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 6.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10, 11}, 3, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTimedOpsKeepP90Tail(t *testing.T) {
	for _, w := range workloads {
		for _, s := range []int{1, 5, 10, 60} {
			n := w.timedOps(s)
			solves := n
			if w.mutate {
				solves = n / 2
				if n%2 != 0 {
					t.Errorf("%s: %d ops at %ds do not pair mutates with solves", w.name, n, s)
				}
			}
			if samplesBeyond(solves, 90) < minTail {
				t.Errorf("%s: %d solves at %ds leave fewer than %d beyond p90", w.name, solves, s, minTail)
			}
			if n != w.timedOps(s) {
				t.Errorf("%s: op count is not a function of the arguments", w.name)
			}
		}
	}
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.g.Edges(), b.g.Edges()) {
			t.Errorf("%s: seed 7 gave two different graphs", w.name)
		}
		if !reflect.DeepEqual(a.warmup, b.warmup) || !reflect.DeepEqual(a.ops, b.ops) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		c, err := makePlan(w, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w.name)
		}
		if len(a.ops) != 40 {
			t.Errorf("%s: %d timed ops, want 40", w.name, len(a.ops))
		}
	}
}

func TestPlanShape(t *testing.T) {
	for _, w := range workloads {
		p, err := makePlan(w, 3, 40)
		if err != nil {
			t.Fatal(err)
		}
		if p.g.N() != graphN {
			t.Fatalf("%s: graph has %d vertices, want %d", w.name, p.g.N(), graphN)
		}
		seen := map[string]bool{}
		for i, o := range p.ops {
			if w.mutate && (i%2 == 0) != (o.kind == opMutate) {
				t.Fatalf("%s: op %d breaks the mutate/solve alternation", w.name, i)
			}
			if o.kind != opSolve {
				continue
			}
			if len(o.seeds) != seedsPerSet {
				t.Fatalf("%s: op %d has %d seeds", w.name, i, len(o.seeds))
			}
			seen[fmt.Sprint(o.seeds)] = true
		}
		switch {
		case w.fresh && len(seen) != len(p.ops):
			t.Errorf("%s: %d distinct seed sets over %d solves, want one per solve", w.name, len(seen), len(p.ops))
		case !w.fresh && len(seen) != warmSets:
			t.Errorf("%s: %d distinct seed sets, want %d", w.name, len(seen), warmSets)
		}
	}
}

// TestMutationBatchesValid applies a long run of batches to a dynamic
// graph: every batch must commit whole, and the graph must end up holding
// exactly the edges and probabilities the client's model expects.
func TestMutationBatchesValid(t *testing.T) {
	w, err := workloadByName("mutate-mix")
	if err != nil {
		t.Fatal(err)
	}
	p, err := makePlan(w, 11, 400)
	if err != nil {
		t.Fatal(err)
	}
	d := dynamic.New(p.g, dynamic.Config{})
	model := newEdgeModel(p.g)
	for i, o := range p.ops {
		if o.kind != opMutate {
			continue
		}
		if len(o.batch) != batchOps {
			t.Fatalf("batch %d has %d ops, want %d", i, len(o.batch), batchOps)
		}
		counts := map[dynamic.Op]int{}
		for _, m := range o.batch {
			counts[m.Op]++
		}
		if counts[dynamic.OpRemoveEdge] != batchOps/3 {
			t.Errorf("batch %d removes %d edges, want %d", i, counts[dynamic.OpRemoveEdge], batchOps/3)
		}
		if i > 0 && counts[dynamic.OpAddEdge] != batchOps/3 {
			t.Errorf("batch %d re-adds %d edges, want %d", i, counts[dynamic.OpAddEdge], batchOps/3)
		}
		info, err := d.Commit(o.batch)
		if err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
		if info.Applied != len(o.batch) {
			t.Fatalf("batch %d applied %d of %d", i, info.Applied, len(o.batch))
		}
		// Replaying the batches against a second model must not panic and
		// must keep the model in step with the graph.
		model.apply(t, o.batch)
	}
	g, _ := d.Snapshot()
	if g.M() != len(model.present) {
		t.Fatalf("graph has %d edges, model %d", g.M(), len(model.present))
	}
	for _, e := range model.present {
		if !g.HasEdge(e.u, e.v) {
			t.Fatalf("edge %d->%d missing", e.u, e.v)
		}
		if got := g.Prob(e.u, e.v); got != model.prob[e] {
			t.Fatalf("edge %d->%d has p=%v, model %v", e.u, e.v, got, model.prob[e])
		}
	}
	for _, e := range model.removed {
		if g.HasEdge(e.u, e.v) {
			t.Fatalf("removed edge %d->%d still present", e.u, e.v)
		}
	}
}

// apply folds a batch into an independent edge model, failing on any
// operation that would be invalid against it.
func (m *edgeModel) apply(t *testing.T, batch []dynamic.Mutation) {
	t.Helper()
	for _, mu := range batch {
		e := edgeKey{mu.U, mu.V}
		_, present := m.pos[e]
		switch mu.Op {
		case dynamic.OpSetProb:
			if !present {
				t.Fatalf("set-prob on absent edge %v", e)
			}
			m.prob[e] = mu.P
		case dynamic.OpRemoveEdge:
			if !present {
				t.Fatalf("remove of absent edge %v", e)
			}
			i := m.pos[e]
			last := m.present[len(m.present)-1]
			m.present[i] = last
			m.pos[last] = i
			m.present = m.present[:len(m.present)-1]
			delete(m.pos, e)
			m.removed = append(m.removed, e)
		case dynamic.OpAddEdge:
			if present {
				t.Fatalf("add of present edge %v", e)
			}
			m.put(e)
			m.prob[e] = mu.P
			for i, r := range m.removed {
				if r == e {
					m.removed = append(m.removed[:i], m.removed[i+1:]...)
					break
				}
			}
		default:
			t.Fatalf("unexpected op %q", mu.Op)
		}
	}
}
