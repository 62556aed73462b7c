package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Barriers (paper Section 1.1): centralized at the manager, rank 0.
// Clients close their interval and send a barrier-arrive message carrying
// their vector clock and the intervals created since the last barrier;
// the manager merges everything and, when the last arrival lands,
// releases each client with exactly the intervals that client lacks.
//
// As the paper's §5 future-work direction ("scaling a DSM system to a
// cluster having 256 nodes ... further optimization to communication and
// synchronization operations"), the barrier optionally runs over a k-ary
// combining tree (Config.BarrierFanout ≥ 2): each internal node collects
// its children's arrivals, forwards the merged intervals upward, and
// fans the release back down — O(log n) critical path instead of the
// root serving n−1 messages. Fanout 0 (default) is the paper's flat
// centralized barrier.
type barrierState struct {
	episode  int32
	arrivals []*msg.Message // children's arrive requests, this episode
	cond     *sim.Cond

	// Causal-tracing observation (DESIGN.md §13): the context and time of
	// the latest child arrival, consulted when the releases go out to name
	// their enabling cause. Costs no virtual time.
	lastArrive  trace.Ctx
	lastArriveT sim.Time
}

// barrierParent returns the rank this process reports to, or -1 for the
// root.
func (tp *Proc) barrierParent() int {
	if tp.rank == 0 {
		return -1
	}
	k := tp.cluster.cfg.BarrierFanout
	if k < 2 {
		return 0 // flat: everyone reports to the root
	}
	return (tp.rank - 1) / k
}

// barrierChildren returns how many ranks report to this process.
func (tp *Proc) barrierChildren() int {
	k := tp.cluster.cfg.BarrierFanout
	if k < 2 {
		if tp.rank == 0 {
			return tp.n - 1
		}
		return 0
	}
	count := 0
	for c := k*tp.rank + 1; c <= k*tp.rank+k && c < tp.n; c++ {
		count++
	}
	return count
}

// Barrier blocks until all n processes have reached the same barrier.
// Crossing it makes all processes' modifications visible everywhere
// (lazily: pages are invalidated; data moves on demand).
func (tp *Proc) Barrier(id int32) {
	tp.maybeCrashAt(&tp.crashBarriers, tp.cluster.cfg.Crash.AtBarrier)
	start := tp.sp.Now()
	tp.stats.Barriers++

	// The metadata gauge is observed at every crossing but the shutdown
	// one; measuring costs no virtual time and touches no wire.
	if id != finalBarrier {
		tp.stats.MetaBytesPeak = max(tp.stats.MetaBytesPeak, tp.metaGauge())
	}

	// The episode counter at entry identifies this crossing cluster-wide
	// (handleBarrierArrive asserts every arrival matches it); it is only
	// incremented in phase 3 below.
	ep := tp.barrier.episode
	tp.observe(event{kind: evBarrierArrive, id: id, a: int(ep)})

	children := tp.barrierChildren()
	parent := tp.barrierParent()

	// Phase 1: wait for all our children to arrive (their intervals are
	// applied on receipt by the handler).
	tp.blockedOn = blocked("barrier %d episode %d (awaiting %d arrivals)", int(id), int(ep), children)
	for len(tp.barrier.arrivals) < children {
		tp.sp.WaitOn(tp.barrier.cond)
	}
	tp.blockedOn = entity{}

	tp.tr.DisableAsync(tp.sp)
	tp.closeInterval()
	arrivals := tp.barrier.arrivals
	tp.barrier.arrivals = nil
	for _, req := range arrivals {
		if req.Barrier != id {
			panic(fmt.Sprintf("tmk: barrier mismatch: rank %d at %d, child %d at %d",
				tp.rank, id, req.ReplyTo, req.Barrier))
		}
	}
	tp.tr.EnableAsync(tp.sp)

	// Phase 2: report our subtree's new intervals upward and apply the
	// release coming back down.
	var pIvs, pPgs int
	var releaseCtx trace.Ctx
	if parent >= 0 {
		tp.tr.DisableAsync(tp.sp)
		recs := tp.store.since(tp.lastBarrierVC)
		tp.tr.EnableAsync(tp.sp)
		pIvs = len(recs)
		for _, r := range recs {
			pPgs += len(r.pages)
		}
		rep := tp.call(parent, blocked("barrier %d episode %d (arrive at parent %d)", int(id), int(ep), parent),
			&msg.Message{
				Kind:      msg.KBarrierArrive,
				Barrier:   id,
				Episode:   ep,
				VC:        tp.vc.Ints(),
				Intervals: toWire(recs),
			})
		if rep.Kind != msg.KBarrierRelease {
			panic(fmt.Sprintf("tmk: bad barrier release %v", rep.Kind))
		}
		releaseCtx = rep.Ctx
		tp.tr.DisableAsync(tp.sp)
		tp.applyIntervals(rep.Intervals)
		tp.endEpoch()
		tp.tr.EnableAsync(tp.sp)
	}

	// Phase 3: release our children with exactly what each lacks. With
	// causal tracing on, each release names its enabling cause: the
	// release received from our parent (internal node), the last child
	// arrival (a root that waited), or the root's own timeline (a root
	// that was itself the straggler). Parenting on the child's own arrival
	// would mis-attribute every child's wait to its own round-trip instead
	// of the straggler's lateness.
	var enabling trace.Ctx
	if cz := tp.sp.Sim().Causal(); cz != nil {
		switch {
		case parent >= 0:
			enabling = releaseCtx
		case tp.barrier.lastArriveT > start:
			enabling = tp.barrier.lastArrive
		default:
			enabling = trace.Ctx{Trace: cz.TraceID(), Span: trace.SpanLocal}
		}
		if parent < 0 {
			// The root receives no release; whatever enabled its own release
			// is also what unblocks its mainline after the barrier.
			cz.SetCur(tp.rank, enabling)
		}
	}
	tp.tr.DisableAsync(tp.sp)
	if parent < 0 {
		tp.endEpoch()
	}
	for _, req := range arrivals {
		recs := tp.store.since(VC(req.VC))
		tp.tr.Reply(tp.sp, req, &msg.Message{
			Kind:      msg.KBarrierRelease,
			Barrier:   id,
			Episode:   req.Episode,
			Intervals: toWire(recs),
			Ctx:       enabling,
		})
	}
	tp.barrier.episode++
	tp.tr.EnableAsync(tp.sp)

	tp.stats.BarrierWait += tp.sp.Now() - start
	tp.observe(event{kind: evBarrier, start: start, dur: tp.sp.Now() - start, id: id, peer: parent,
		a: int(ep), b: pIvs, c: pPgs})
}

// endEpoch fixes the barrier's vector clock. It runs under the mask that
// applied the release (the root: before it builds any), where tp.vc is the
// same on every rank; once a child is released and delivery is on, its next
// arrival can be merged before Barrier returns. A home-based run also moves
// homes on the epoch just closed and drops what nobody can ask for again:
// every rank is past the previous barrier, so its interval records go, and
// all but the newest notice per writer up to it (only the newest is ever
// read).
func (tp *Proc) endEpoch() {
	prev := tp.lastBarrierVC
	tp.lastBarrierVC = tp.vc.Clone()
	if tp.homes == nil {
		return
	}
	tp.moveHomes(tp.store.since(prev))
	tp.store.pruneThrough(prev)
	for _, pm := range tp.pages {
		if pm != nil {
			pm.keepNewest(prev)
		}
	}
}

// handleBarrierArrive runs at a parent when one of its children arrives.
func (tp *Proc) handleBarrierArrive(req *msg.Message) {
	if req.Episode != tp.barrier.episode {
		panic(fmt.Sprintf("tmk: barrier episode skew: rank %d at %d, child %d at %d",
			tp.rank, tp.barrier.episode, req.ReplyTo, req.Episode))
	}
	tp.applyIntervals(req.Intervals)
	if tp.sp.Sim().Causal() != nil {
		tp.barrier.lastArrive = req.Ctx
		tp.barrier.lastArriveT = tp.sp.Now()
	}
	tp.barrier.arrivals = append(tp.barrier.arrivals, req)
	tp.barrier.cond.Broadcast()
}
