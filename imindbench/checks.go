package main

import (
	"fmt"
	"slices"

	"github.com/imin-dev/imin/internal/service"
)

// checkSolve returns the output checks a solve response violates: the
// blockers are distinct, in range, at most the budget and never a seed;
// the spread report is present and blocking did not raise the spread; the
// echoed request matches what was sent.
func checkSolve(o op, r *service.SolveResponse) []string {
	var bad []string
	if !slices.Equal(r.Seeds, o.seeds) {
		bad = append(bad, fmt.Sprintf("seeds echoed as %v, sent %v", r.Seeds, o.seeds))
	}
	if len(r.Blockers) > budget {
		bad = append(bad, fmt.Sprintf("%d blockers exceed the budget %d", len(r.Blockers), budget))
	}
	seen := make(map[int]bool, len(r.Blockers))
	for _, b := range r.Blockers {
		switch {
		case b < 0 || b >= graphN:
			bad = append(bad, fmt.Sprintf("blocker %d out of range", b))
		case seen[b]:
			bad = append(bad, fmt.Sprintf("blocker %d repeated", b))
		case slices.Contains(o.seeds, b):
			bad = append(bad, fmt.Sprintf("blocker %d is a seed", b))
		}
		seen[b] = true
	}
	switch {
	case r.SpreadBefore == nil || r.SpreadAfter == nil || r.ReductionPct == nil:
		bad = append(bad, "spread report missing")
	case *r.SpreadAfter > *r.SpreadBefore:
		bad = append(bad, fmt.Sprintf("spread_after %.4f exceeds spread_before %.4f", *r.SpreadAfter, *r.SpreadBefore))
	}
	if r.TimedOut || r.Canceled {
		bad = append(bad, "solve stopped early")
	}
	if r.Theta != theta || r.Workers != solveWorkers {
		bad = append(bad, fmt.Sprintf("echoed theta %d workers %d, sent %d and %d", r.Theta, r.Workers, theta, solveWorkers))
	}
	if r.Cost == nil {
		bad = append(bad, "cost block missing")
	}
	return bad
}

// checkMutate returns the checks a mutation response violates: the whole
// batch applied, and the warm session advanced with its pools repaired in
// place rather than reset or dropped.
func checkMutate(o op, r *service.MutateResponse, pools int) []string {
	var bad []string
	if r.Applied != len(o.batch) {
		bad = append(bad, fmt.Sprintf("applied %d of %d mutations", r.Applied, len(o.batch)))
	}
	rep := r.Repair
	if rep.SessionsReset != 0 || rep.SessionsAdvanced != 1 {
		bad = append(bad, fmt.Sprintf("sessions advanced %d reset %d, want 1 and 0", rep.SessionsAdvanced, rep.SessionsReset))
	}
	if rep.PoolsDropped != 0 || rep.PoolsRepaired != pools {
		bad = append(bad, fmt.Sprintf("pools repaired %d dropped %d, want %d and 0", rep.PoolsRepaired, rep.PoolsDropped, pools))
	}
	return bad
}
