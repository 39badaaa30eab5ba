package core

import (
	"testing"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// hookGraph builds a deterministic random graph large enough that the
// greedy loops run several rounds with non-trivial estimator work.
func hookGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := 120
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(4))*0.2+0.2)
	}
	return b.Build()
}

// TestOnRoundBitIdentity asserts the tentpole invariant: setting
// Options.OnRound must not change the selected blockers, for both greedy
// algorithms, with and without sample-pool reuse.
func TestOnRoundBitIdentity(t *testing.T) {
	g := hookGraph(11)
	seeds := []graph.V{0, 3}
	for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
		for _, reuse := range []bool{false, true} {
			opt := Options{Theta: 2000, Workers: 3, Seed: 42, ReuseSamples: reuse}
			plain, err := Solve(g, seeds, 6, alg, opt)
			if err != nil {
				t.Fatalf("%s reuse=%v: %v", alg, reuse, err)
			}
			hooked := opt
			var rounds []RoundInfo
			hooked.OnRound = func(ri RoundInfo) { rounds = append(rounds, ri) }
			traced, err := Solve(g, seeds, 6, alg, hooked)
			if err != nil {
				t.Fatalf("%s reuse=%v hooked: %v", alg, reuse, err)
			}
			if len(plain.Blockers) != len(traced.Blockers) {
				t.Fatalf("%s reuse=%v: blocker count %d vs %d", alg, reuse, len(plain.Blockers), len(traced.Blockers))
			}
			for i := range plain.Blockers {
				if plain.Blockers[i] != traced.Blockers[i] {
					t.Fatalf("%s reuse=%v: blockers diverge at %d: %v vs %v",
						alg, reuse, i, plain.Blockers, traced.Blockers)
				}
			}
			if len(rounds) == 0 {
				t.Fatalf("%s reuse=%v: OnRound never fired", alg, reuse)
			}
			for i, ri := range rounds {
				if ri.Phase != "select" && ri.Phase != "replace" {
					t.Fatalf("round %d: bad phase %q", i, ri.Phase)
				}
				if ri.Duration < 0 || ri.SamplesDirty < 0 {
					t.Fatalf("round %d: negative counters: %+v", i, ri)
				}
				if ri.SamplesStolen != 0 {
					t.Fatalf("round %d: SamplesStolen = %d, want the documented 0", i, ri.SamplesStolen)
				}
			}
			// The selection rounds must report the chosen blockers in order.
			var sel []graph.V
			for _, ri := range rounds {
				if ri.Phase == "select" {
					sel = append(sel, ri.Chosen)
				}
			}
			if alg == AdvancedGreedy {
				if len(sel) != len(traced.Blockers) {
					t.Fatalf("select rounds %d != blockers %d", len(sel), len(traced.Blockers))
				}
				for i := range sel {
					if sel[i] != traced.Blockers[i] {
						t.Fatalf("round %d chose %d, blocker is %d", i, sel[i], traced.Blockers[i])
					}
				}
			}
		}
	}
}

// TestOnRoundReportsDirtySamples checks that warm incremental solves charge
// reprocessed-sample work to rounds via the hook.
func TestOnRoundReportsDirtySamples(t *testing.T) {
	g := hookGraph(23)
	opt := Options{Theta: 2000, Workers: 2, Seed: 9, ReuseSamples: true}
	var dirty int64
	opt.OnRound = func(ri RoundInfo) { dirty += ri.SamplesDirty }
	if _, err := Solve(g, []graph.V{0}, 5, AdvancedGreedy, opt); err != nil {
		t.Fatal(err)
	}
	if dirty == 0 {
		t.Fatal("incremental solve reported zero dirty samples across all rounds")
	}
}
