package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// ledgerEpsilonPct is the largest share of the traced per-op latency that
// may fall outside the spans of the layer calls on the blocking path. A
// larger gap means the replay does work no span accounts for.
const ledgerEpsilonPct = 1.0

// evaluation is the checked outcome of the daemon pass.
type evaluation struct {
	attempted int
	failedOps map[int]bool // timed op index -> failed a check
	selfOK    bool

	solveMS, mutateMS   []float64 // client latency of successful requests
	reductions          []float64 // reduction_pct per successful solve
	overheadMS, queueMS []float64 // client latency - cost.total_ns; queue waits
	solves, hits        int
}

func (ev *evaluation) fail(i int, format string, args ...any) {
	if !ev.failedOps[i] {
		fmt.Fprintf(os.Stderr, "op %d: "+format+"\n", append([]any{i}, args...)...)
	}
	ev.failedOps[i] = true
}

func (ev *evaluation) selfCheck(ok bool, format string, args ...any) {
	if !ok {
		ev.selfOK = false
		fmt.Fprintf(os.Stderr, "self-check failed: "+format+"\n", args...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// evaluate checks every timed response and the workload's self-checks.
func evaluate(w workload, p *plan, sp *servePass) *evaluation {
	ev := &evaluation{attempted: len(p.ops), failedOps: map[int]bool{}, selfOK: true}
	for i, r := range sp.results {
		o := p.ops[i]
		if r.err != nil {
			ev.fail(i, "%v", r.err)
			continue
		}
		var bad []string
		if o.kind == opSolve {
			bad = checkSolve(o, r.solve)
		} else {
			bad = checkMutate(o, r.mutate, warmSets)
		}
		if len(bad) > 0 {
			ev.fail(i, "%v", bad)
			continue
		}
		if o.kind == opMutate {
			ev.mutateMS = append(ev.mutateMS, ms(r.latency))
			continue
		}
		s := r.solve
		ev.solves++
		if s.SessionCacheHit {
			ev.hits++
		}
		ev.solveMS = append(ev.solveMS, ms(r.latency))
		ev.reductions = append(ev.reductions, *s.ReductionPct)
		ev.overheadMS = append(ev.overheadMS, ms(r.latency)-float64(s.Cost.TotalNS)/1e6)
		ev.queueMS = append(ev.queueMS, float64(s.Cost.QueueSessionNS+s.Cost.QueueSlotNS)/1e6)
	}

	// Self-checks: the workload is what its name says.
	ev.selfCheck(ev.hits == ev.solves, "session cache hit on %d of %d solves, want all", ev.hits, ev.solves)
	builds := sp.last.Sessions.PoolBuilds - sp.before.Sessions.PoolBuilds
	reuses := sp.last.Sessions.PoolReuses - sp.before.Sessions.PoolReuses
	if w.reuse {
		ev.selfCheck(builds == 0 && reuses == int64(ev.solves), "pools built %d reused %d over %d solves, want 0 and all", builds, reuses, ev.solves)
	} else {
		ev.selfCheck(builds == 0 && reuses == 0, "pools built %d reused %d without reuse_samples, want none", builds, reuses)
	}
	if w.mutate {
		reset := sp.last.Mutations.SessionsReset - sp.before.Mutations.SessionsReset
		ev.selfCheck(reset == 0, "%d sessions reset by mutation batches, want 0", reset)
	}
	// Below 100 ticks the 10 ms tick would distort server_cpu_ms_per_op
	// by more than 1 %.
	ev.selfCheck(sp.cpuTicks >= 100, "only %d CPU ticks in the timed window, want at least 100", sp.cpuTicks)
	for _, n := range []int{len(ev.solveMS), len(ev.mutateMS)} {
		if n > 0 {
			ev.selfCheck(samplesBeyond(n, 90) >= minTail, "only %d of %d samples beyond p90, want %d", samplesBeyond(n, 90), n, minTail)
		}
	}
	return ev
}

func (ev *evaluation) correct() bool { return ev.selfOK && len(ev.failedOps) == 0 }

// endToEnd assembles the --trace 0 report.
func (ev *evaluation) endToEnd(w workload, sp *servePass) *report {
	m := map[string]metric{
		"setup_s":              {median(sp.setupS), "s"},
		"solve_p50_ms":         {percentile(ev.solveMS, 50), "ms"},
		"solve_p90_ms":         {percentile(ev.solveMS, 90), "ms"},
		"ops_per_s":            {float64(ev.attempted) / sp.wall.Seconds(), "1/s"},
		"spread_reduction_pct": {mean(ev.reductions), "%"},
		"server_cpu_ms_per_op": {float64(sp.cpuTicks) * 10 / float64(ev.attempted), "ms"},
		"server_rss_peak_mb":   {sp.peakRSSMB, "MB"},
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops (%d solves, %d mutates) in %.2fs; setups %v s; %d CPU ticks\n",
		w.name, ev.attempted, len(ev.solveMS), len(ev.mutateMS), sp.wall.Seconds(), roundAll(sp.setupS), sp.cpuTicks)
	// Solve p50 per tenth of the run shows whether a slow run was slow
	// throughout or only for a while.
	var tenths []float64
	for k := range 10 {
		lo, hi := k*len(ev.solveMS)/10, (k+1)*len(ev.solveMS)/10
		tenths = append(tenths, percentile(ev.solveMS[lo:hi], 50))
	}
	fmt.Fprintf(os.Stderr, "%s: solve p50 per tenth of the run %v ms\n", w.name, roundAll(tenths))
	return &report{Correct: ev.correct(), Attempted: ev.attempted, Failed: len(ev.failedOps), Metrics: m}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// perLayer replays the plan traced, cross-checks it against the daemon's
// answers and assembles the --trace 1 report.
func (ev *evaluation) perLayer(w workload, p *plan, sp *servePass, rp *replay) (*report, error) {
	for i, o := range p.warmup {
		got, err := rp.run(o, -1)
		if err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
		if want := sp.warm[i].solve; !slices.Equal(got.blockers, want.Blockers) {
			ev.selfCheck(false, "set-up solve %d: replay blockers %v, daemon %v", i, got.blockers, want.Blockers)
		}
	}
	compactions0 := rp.dyn.Stats().Compactions
	daemonCompactions := 0
	for i, o := range p.ops {
		got, err := rp.run(o, i)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		r := sp.results[i]
		if r.err != nil {
			continue
		}
		if o.kind == opSolve {
			s := r.solve
			if !slices.Equal(got.blockers, s.Blockers) {
				ev.fail(i, "replay blockers %v, daemon %v", got.blockers, s.Blockers)
			} else if s.SpreadBefore != nil && s.SpreadAfter != nil && (got.before != *s.SpreadBefore || got.after != *s.SpreadAfter) {
				ev.fail(i, "replay spreads %v/%v, daemon %v/%v", got.before, got.after, *s.SpreadBefore, *s.SpreadAfter)
			}
			continue
		}
		if got.redrawn != r.mutate.Repair.SamplesRedrawn {
			ev.fail(i, "replay redrew %d samples, daemon %d", got.redrawn, r.mutate.Repair.SamplesRedrawn)
		}
		if r.mutate.Compacted {
			daemonCompactions++
		}
	}
	compactions := rp.dyn.Stats().Compactions - compactions0
	ev.selfCheck(compactions == int64(daemonCompactions), "replay compacted %d times, daemon %d", compactions, daemonCompactions)
	if w.fresh {
		ev.selfCheck(rp.instanceHits == 0, "%d of %d fresh solves found a prepared instance, want none", rp.instanceHits, rp.solves)
	} else {
		ev.selfCheck(rp.instanceHits == rp.solves, "%d of %d warm solves found a prepared instance, want all", rp.instanceHits, rp.solves)
	}

	// The ledger: the calls on each op's blocking path must cover the op.
	var rootSum, childSum time.Duration
	for _, s := range rp.tr.spans {
		switch {
		case s.op < 0 || s.probe:
		case s.parent == "":
			rootSum += s.dur
		case s.parent == "op.solve" || s.parent == "op.mutate":
			childSum += s.dur
		}
	}
	gapPct := 100 * float64(rootSum-childSum) / float64(rootSum)
	ev.selfCheck(math.Abs(gapPct) <= ledgerEpsilonPct, "layer spans cover the op spans to %.3f%%, want within %.1f%%", gapPct, ledgerEpsilonPct)
	printLedger(w, rp.tr.spans)

	// Untraced per-op time of the same ops: the daemon's own solve total
	// (cost.total_ns), or the client latency for a mutate.
	var untraced time.Duration
	for _, r := range sp.results {
		switch {
		case r.err != nil:
		case r.solve != nil:
			untraced += time.Duration(r.solve.Cost.TotalNS)
		default:
			untraced += r.latency
		}
	}

	n := float64(len(p.ops))
	pools, _, _ := rp.sess.PoolStats()
	builds := sp.last.Sessions.PoolBuilds - sp.before.Sessions.PoolBuilds
	reuses := sp.last.Sessions.PoolReuses - sp.before.Sessions.PoolReuses
	var walPerBatch float64
	if sp.last.Persist != nil && rp.batches > 0 {
		walPerBatch = float64(sp.last.Persist.WALBytes-sp.before.Persist.WALBytes) / float64(rp.batches)
	}
	mutP50, mutP90 := 0.0, 0.0
	if len(ev.mutateMS) > 0 {
		mutP50, mutP90 = percentile(ev.mutateMS, 50), percentile(ev.mutateMS, 90)
	}
	m := map[string]metric{
		"service.overhead_ms":          {median(ev.overheadMS), "ms"},
		"service.queue_wait_ms":        {mean(ev.queueMS), "ms"},
		"service.session_hit_ratio":    {ratio(ev.hits, ev.solves), "ratio"},
		"core.pool_reuse_ratio":        {ratio64(reuses, builds+reuses), "ratio"},
		"core.instance_reuse_ratio":    {ratio(rp.instanceHits, rp.solves), "ratio"},
		"graph.unify_ms":               {spanMean(rp.tr.spans, "graph.unify", true), "ms"},
		"graph.unify_calls_per_op":     {float64(rp.unifyCalls) / n, "count/op"},
		"core.prepare_ms":              {spanMean(rp.tr.spans, "core.prepare", false), "ms"},
		"core.pool_build_ms":           {spanMean(rp.tr.spans, "core.pool_build", true), "ms"},
		"core.pool_bytes":              {float64(pools), "B"},
		"core.fresh_round_ms":          {spanMean(rp.tr.spans, "core.round.fresh", false), "ms"},
		"core.fresh_samples_per_round": {ratio64(rp.freshSamples, int64(rp.freshRounds)), "count"},
		"core.incr_round_ms":           {spanMean(rp.tr.spans, "core.round.incr", false), "ms"},
		"core.dirty_samples_per_round": {ratio64(rp.dirty, int64(rp.incrRounds)), "count"},
		"core.stolen_share":            {ratio64(rp.stolen, rp.dirty), "ratio"},
		"core.solve_ms":                {spanMean(rp.tr.spans, "core.solve", false), "ms"},
		"cascade.eval_ms":              {spanMean(rp.tr.spans, "cascade.eval", false), "ms"},
		"cascade.mc_sims_per_op":       {float64(rp.mcSims) / n, "count/op"},
		"core.repair_ms":               {spanMean(rp.tr.spans, "core.repair", false), "ms"},
		"core.samples_redrawn":         {float64(rp.redrawn), "count"},
		"core.repair_kept_ratio":       {ratio64(rp.kept, rp.kept+rp.redrawn), "ratio"},
		"dynamic.commit_ms":            {spanMean(rp.tr.spans, "dynamic.commit", false), "ms"},
		"dynamic.snapshot_ms":          {spanMean(rp.tr.spans, "dynamic.snapshot", false), "ms"},
		"dynamic.compactions":          {float64(compactions), "count"},
		"store.wal_append_ms":          {spanMean(rp.tr.spans, "store.wal_append", false), "ms"},
		"store.wal_bytes_per_batch":    {walPerBatch, "B"},
		"mutate_p50_ms":                {mutP50, "ms"},
		"mutate_p90_ms":                {mutP90, "ms"},
		"failed_pct":                   {100 * float64(len(ev.failedOps)) / n, "%"},
		"solve_samples":                {float64(len(ev.solveMS)), "count"},
		"trace.op_ms":                  {ms(rootSum) / n, "ms"},
		"trace.ledger_gap_pct":         {gapPct, "%"},
		"trace.overhead_pct":           {100 * float64(rootSum-untraced) / float64(untraced), "%"},
	}
	return &report{Correct: ev.correct(), Attempted: ev.attempted, Failed: len(ev.failedOps), Metrics: m}, nil
}

func ratio(a, b int) float64 { return ratio64(int64(a), int64(b)) }

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanMean is the mean duration in ms of the spans called name: over the
// timed ops only, or over set-up too when withSetup is set (the warm
// workloads unify and build pools only while setting up).
func spanMean(spans []span, name string, withSetup bool) float64 {
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.name == name && (withSetup || s.op >= 0) {
			sum += s.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// printLedger writes the traced ledger to standard error: per op type,
// the mean time per op of each layer call on the blocking path ("self":
// the call minus the sub-steps timed inside it) and of those sub-steps.
// The rows of an op type add up to its traced latency; whatever the
// layer calls do not cover is printed last.
func printLedger(w workload, spans []span) {
	type key struct {
		op   int
		name string
	}
	inner := map[key]time.Duration{} // (op, span) -> time of the spans inside it
	roots := map[int]string{}        // op -> its root span's name
	for _, s := range spans {
		switch {
		case s.op < 0:
		case s.parent == "":
			roots[s.op] = s.name
		default:
			inner[key{s.op, s.parent}] += s.dur
		}
	}
	type row struct {
		total time.Duration
		n     int
		parts map[string]time.Duration
	}
	rows := map[string]*row{}
	for _, s := range spans {
		if s.op < 0 {
			continue
		}
		root := roots[s.op]
		r := rows[root]
		if r == nil {
			r = &row{parts: map[string]time.Duration{}}
			rows[root] = r
		}
		switch s.parent {
		case "":
			r.total += s.dur
			r.n++
		case root:
			r.parts[s.name+" (self)"] += s.dur - inner[key{s.op, s.name}]
		default:
			r.parts[s.name] += s.dur
		}
	}
	for _, root := range []string{"op.solve", "op.mutate"} {
		r := rows[root]
		if r == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "ledger %s %s: %.3f ms/op over %d ops\n", w.name, root, ms(r.total)/float64(r.n), r.n)
		names := make([]string, 0, len(r.parts))
		for k := range r.parts {
			names = append(names, k)
		}
		slices.Sort(names)
		var sum time.Duration
		for _, k := range names {
			sum += r.parts[k]
			fmt.Fprintf(os.Stderr, "  %-26s %9.3f ms/op\n", k, ms(r.parts[k])/float64(r.n))
		}
		fmt.Fprintf(os.Stderr, "  %-26s %9.3f ms/op\n", "(outside layer calls)", ms(r.total-sum)/float64(r.n))
	}
}
