package diag_test

import (
	"testing"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// costGraph builds a deterministic random graph with enough estimator work
// that the greedy loop runs real rounds.
func costGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := 120
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(4))*0.2+0.2)
	}
	return b.Build()
}

// TestCostAccountingBitNeutral is the flight recorder's observer-purity
// contract: wiring SolveCost.AddRound into Options.OnRound must not change
// the selected blockers — cost accounting reads the solve, never steers it.
func TestCostAccountingBitNeutral(t *testing.T) {
	g := costGraph(17)
	seeds := []graph.V{0, 3}
	for _, reuse := range []bool{false, true} {
		opt := core.Options{Theta: 2000, Workers: 3, Seed: 42, ReuseSamples: reuse}
		plain, err := core.Solve(g, seeds, 6, core.AdvancedGreedy, opt)
		if err != nil {
			t.Fatalf("reuse=%v plain: %v", reuse, err)
		}

		var cost diag.SolveCost
		counted := opt
		counted.OnRound = func(ri core.RoundInfo) {
			cost.AddRound(ri.Duration, ri.SamplesDirty)
		}
		accounted, err := core.Solve(g, seeds, 6, core.AdvancedGreedy, counted)
		if err != nil {
			t.Fatalf("reuse=%v accounted: %v", reuse, err)
		}

		if len(plain.Blockers) != len(accounted.Blockers) {
			t.Fatalf("reuse=%v: blocker count %d vs %d", reuse, len(plain.Blockers), len(accounted.Blockers))
		}
		for i := range plain.Blockers {
			if plain.Blockers[i] != accounted.Blockers[i] {
				t.Fatalf("reuse=%v: blockers diverge at %d: %v vs %v",
					reuse, i, plain.Blockers, accounted.Blockers)
			}
		}
		if cost.Rounds == 0 {
			t.Fatalf("reuse=%v: cost accounting observed no rounds", reuse)
		}
		if cost.RoundNS < 0 || cost.SamplesDirty < 0 {
			t.Fatalf("reuse=%v: negative cost counters: %+v", reuse, cost)
		}
	}
}

// TestAddRoundAccumulates checks the plain arithmetic.
func TestAddRoundAccumulates(t *testing.T) {
	var c diag.SolveCost
	c.AddRound(100, 7)
	c.AddRound(50, 3)
	if c.Rounds != 2 || c.RoundNS != 150 || c.SamplesDirty != 10 {
		t.Fatalf("unexpected accumulation: %+v", c)
	}
}
