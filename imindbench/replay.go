package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
	"github.com/imin-dev/imin/internal/store"
)

// span is one timed call, recorded by the benchmark around a public
// function of a layer. Spans stay in memory until the run ends.
type span struct {
	op     int    // timed op index; -1 during set-up
	name   string // layer.call
	parent string // enclosing span; "" for an op's root
	dur    time.Duration
	// probe marks a stand-alone call that re-times a sub-step its parent
	// performs internally (UnifySeeds inside prepare and Advance, pool build
	// inside Solve). A probe is outside the request's blocking path: it is
	// subtracted from its parent's self time, never added to the op.
	probe bool
}

// tracer collects spans.
type tracer struct {
	op    int
	spans []span
}

func (t *tracer) timed(name, parent string, fn func()) {
	start := time.Now()
	fn()
	t.spans = append(t.spans, span{op: t.op, name: name, parent: parent, dur: time.Since(start)})
}

func (t *tracer) add(name, parent string, d time.Duration, probe bool) {
	t.spans = append(t.spans, span{op: t.op, name: name, parent: parent, dur: d, probe: probe})
}

// replayed is what the replay computed for one op, for comparison with the
// daemon's response to the same request.
type replayed struct {
	blockers      []int
	before, after float64
	redrawn       int64 // mutate: samples the repair redrew
}

// replay re-executes a plan in-process through the layers' public
// functions, mirroring what the daemon does for each request: the same
// session type, options, evaluation chunks and mutation path.
type replay struct {
	w       workload
	tr      tracer
	sess    *core.Session
	dyn     *dynamic.Graph
	st      *store.Store
	gs      *store.GraphStore
	epoch   uint64 // the epoch the session is at
	workers int
	sets    [][]graph.V // warm seed sets, which are the session's instances

	// Counters over timed ops.
	solves, instanceHits        int
	freshRounds, incrRounds     int
	freshSamples, dirty, stolen int64
	unifyCalls                  int
	mcSims                      int64
	batches                     int
	redrawn, kept               int64
}

func newReplay(w workload, p *plan, dir string) (*replay, error) {
	g := p.g
	rp := &replay{w: w, tr: tracer{op: -1}, workers: min(solveWorkers, runtime.GOMAXPROCS(0))}
	rp.dyn = dynamic.New(g, dynamic.Config{})
	rp.sess = core.NewSessionAtEpoch(g, core.DiffusionIC, core.DomAlgo(0), 0, 0)
	if w.durable {
		st, err := store.Open(dir, store.Config{Fsync: store.FsyncInterval})
		if err != nil {
			return nil, err
		}
		rp.st = st
		if rp.gs, err = st.Create(graphName, g, 0, "file serve.bin", "keep"); err != nil {
			st.Close()
			return nil, err
		}
	}
	if !w.fresh {
		for _, o := range p.warmup {
			rp.sets = append(rp.sets, toV(o.seeds))
		}
	}
	return rp, nil
}

func (rp *replay) close() error {
	if rp.st != nil {
		return rp.st.Close()
	}
	return nil
}

func toV(ids []int) []graph.V {
	vs := make([]graph.V, len(ids))
	for i, id := range ids {
		vs[i] = graph.V(id)
	}
	return vs
}

// evalChunk mirrors the daemon's chunking of the spread report: each
// chunk of at most this many rounds runs on its own rng stream.
const evalChunk = 2000

// evaluate is the daemon's chunked spread report over the session.
func (rp *replay) evaluate(seeds, blockers []graph.V, opt core.Options) (float64, error) {
	var total float64
	for done := 0; done < evalRounds; done += evalChunk {
		n := min(evalRounds-done, evalChunk)
		copt := opt
		copt.Seed = opt.Seed + uint64(done)*0x9e3779b97f4a7c15
		v, err := rp.sess.EvaluateSpread(context.Background(), seeds, blockers, n, copt)
		if err != nil {
			return 0, err
		}
		total += v * float64(n)
	}
	return total / float64(evalRounds), nil
}

// run replays one op; idx is its timed index, or -1 for set-up.
func (rp *replay) run(o op, idx int) (*replayed, error) {
	rp.tr.op = idx
	if o.kind == opMutate {
		return rp.mutate(o)
	}
	return rp.solve(o)
}

// solve is one solve request: force instance preparation, report the
// spread before, select blockers, report the spread after. Preparation is
// its own call (a one-round EvaluateSpread) so that its cost, which the
// daemon pays inside the first spread report, gets its own span.
func (rp *replay) solve(o op) (*replayed, error) {
	seeds := toV(o.seeds)
	opt := core.Options{Theta: theta, Seed: o.seed, Workers: rp.workers, ReuseSamples: rp.w.reuse}
	var rounds []core.RoundInfo
	opt.OnRound = func(ri core.RoundInfo) { rounds = append(rounds, ri) }
	ctx := context.Background()
	out := &replayed{}
	var res core.Result
	var err error
	var missed, poolBuilt bool
	rp.tr.timed("op.solve", "", func() {
		s0 := rp.sess.Stats()
		rp.tr.timed("core.prepare", "op.solve", func() {
			_, err = rp.sess.EvaluateSpread(ctx, seeds, nil, 1, opt)
		})
		if err != nil {
			return
		}
		missed = rp.sess.Stats().Rebuilds > s0.Rebuilds
		rp.tr.timed("cascade.eval", "op.solve", func() { out.before, err = rp.evaluate(seeds, nil, opt) })
		if err != nil {
			return
		}
		_, builds0, _ := rp.sess.PoolStats()
		rp.tr.timed("core.solve", "op.solve", func() {
			res, err = rp.sess.Solve(ctx, seeds, budget, core.GreedyReplace, opt)
		})
		if err != nil {
			return
		}
		_, builds1, _ := rp.sess.PoolStats()
		poolBuilt = builds1 > builds0
		rp.tr.timed("cascade.eval", "op.solve", func() { out.after, err = rp.evaluate(seeds, res.Blockers, opt) })
	})
	if err != nil {
		return nil, err
	}
	out.blockers = make([]int, len(res.Blockers))
	for i, b := range res.Blockers {
		out.blockers[i] = int(b)
	}

	name := "core.round.fresh"
	if rp.w.reuse {
		name = "core.round.incr"
	}
	for _, ri := range rounds {
		rp.tr.add(name, "core.solve", ri.Duration, false)
	}
	g, _ := rp.dyn.Snapshot()
	if missed {
		rp.tr.add("graph.unify", "core.prepare", timeUnify(g, seeds), true)
	}
	if poolBuilt {
		rp.tr.add("core.pool_build", "core.solve", timePoolBuild(g, seeds, o.seed, rp.workers), true)
	}

	if rp.tr.op >= 0 {
		rp.solves++
		if missed {
			rp.unifyCalls++
		} else {
			rp.instanceHits++
		}
		rp.mcSims += 1 + 2*evalRounds
		for _, ri := range rounds {
			if rp.w.reuse {
				rp.incrRounds++
				rp.dirty += ri.SamplesDirty
				rp.stolen += ri.SamplesStolen
			} else {
				rp.freshRounds++
				rp.freshSamples += ri.SamplesDirty
			}
		}
	}
	return out, nil
}

// mutate is one mutation request: commit to the overlay, append to the
// WAL, take the new snapshot and changelog, and repair the warm session.
func (rp *replay) mutate(o op) (*replayed, error) {
	out := &replayed{}
	var err error
	var info dynamic.CommitInfo
	var adv core.AdvanceStats
	var g *graph.Graph
	rp.tr.timed("op.mutate", "", func() {
		rp.tr.timed("dynamic.commit", "op.mutate", func() { info, err = rp.dyn.Commit(o.batch) })
		if err != nil {
			return
		}
		if rp.gs != nil {
			rp.tr.timed("store.wal_append", "op.mutate", func() {
				var batch []byte
				if batch, err = dynamic.EncodeBatch(nil, o.batch); err == nil {
					err = rp.gs.Append(context.Background(), info.Epoch, batch)
				}
			})
			if err != nil {
				return
			}
		}
		var epoch uint64
		var srcs, tgts []graph.V
		ok := false
		rp.tr.timed("dynamic.snapshot", "op.mutate", func() {
			g, epoch = rp.dyn.Snapshot()
			srcs, tgts, ok = rp.dyn.ChangedSince(rp.epoch)
		})
		if !ok {
			err = fmt.Errorf("changelog no longer reaches epoch %d", rp.epoch)
			return
		}
		rp.tr.timed("core.repair", "op.mutate", func() {
			var lh *core.LockedSession
			if lh, err = rp.sess.Acquire(context.Background()); err != nil {
				return
			}
			adv = lh.Advance(g, epoch, srcs, tgts)
			lh.Release()
		})
		rp.epoch = epoch
	})
	if err != nil {
		return nil, err
	}
	for _, seeds := range rp.sets[:min(adv.Instances, len(rp.sets))] {
		rp.tr.add("graph.unify", "core.repair", timeUnify(g, seeds), true)
	}
	out.redrawn = adv.SamplesRedrawn
	if rp.tr.op >= 0 {
		rp.batches++
		rp.unifyCalls += adv.Instances
		rp.redrawn += adv.SamplesRedrawn
		rp.kept += adv.SamplesKept
	}
	return out, nil
}

// timeUnify times the multi-seed reduction on its own, the step a session
// performs when it prepares an instance.
func timeUnify(g *graph.Graph, seeds []graph.V) time.Duration {
	start := time.Now()
	g.UnifySeeds(seeds)
	return time.Since(start)
}

// timePoolBuild times drawing the θ-sample pool on its own, from the same
// unified instance and rng stream the session's pool build uses.
func timePoolBuild(g *graph.Graph, seeds []graph.V, seed uint64, workers int) time.Duration {
	u, super := g.UnifySeeds(seeds)
	sampler := cascade.NewIC(u)
	start := time.Now()
	core.NewSamplePool(sampler, super, theta, workers, rng.New(seed).Split(^uint64(0)))
	return time.Since(start)
}
