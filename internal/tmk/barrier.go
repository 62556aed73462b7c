package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Barriers (paper Section 1.1): centralized at the manager, rank 0.
// Every process, the manager included, closes its interval on arrival, as
// in TreadMarks. Clients then send a barrier-arrive message carrying their
// vector clock and the intervals created since the last barrier; the
// manager merges everything and, when the last arrival lands, releases
// each client with exactly the intervals that client lacks.
type barrierState struct {
	episode int32
	// arrivals holds copies of this episode's clients' arrive requests
	// (keepRequest); spare is the last episode's storage, which the next
	// one fills while Barrier still answers from this one's.
	arrivals []msg.Message
	spare    []msg.Message
	cond     *sim.Cond

	// Causal-view observation (DESIGN.md §13): the span and time of the
	// latest client arrival, consulted when the releases go out to name
	// their enabling cause. Costs no virtual time.
	lastArrive  uint64
	lastArriveT sim.Time
}

// Barrier blocks until all n processes have reached the same barrier.
// Crossing it makes all processes' modifications visible everywhere
// (lazily: pages are invalidated; data moves on demand).
func (tp *Proc) Barrier(id int32) {
	start := tp.sp.Now()
	tp.stats.Barriers++

	// The metadata gauge is observed at every crossing but the shutdown
	// one; measuring costs no virtual time and touches no wire.
	if id != finalBarrier {
		tp.stats.MetaBytesPeak = max(tp.stats.MetaBytesPeak, tp.metaGauge())
	}

	// The episode counter at entry identifies this crossing cluster-wide
	// (handleBarrierArrive asserts every arrival matches it). Both halves
	// increment it under the mask that ends the epoch, so a released
	// client's next arrival never meets the old count.
	ep := tp.barrier.episode
	tp.observe(event{kind: trace.KindBarrierArrive, id: id, peer: -1, a: int(ep)})

	// The manager's diff encoding overlaps its wait for the stragglers
	// instead of following the last of them.
	tp.tr.DisableAsync(tp.sp)
	tp.closeInterval()
	tp.tr.EnableAsync(tp.sp)

	manager := -1
	var pIvs, pPgs int
	if tp.rank != 0 {
		manager = 0
		pIvs, pPgs = tp.barrierArrive(id, ep)
	} else {
		tp.barrierRelease(id, ep, start)
	}

	tp.stats.BarrierWait += tp.sp.Now() - start
	tp.observe(event{kind: trace.KindBarrier, start: start, dur: tp.sp.Now() - start, id: id, peer: manager,
		a: int(ep), b: pIvs, c: pPgs})
}

// barrierArrive is a client's half of Barrier: report the intervals
// created since the last barrier to the manager and apply the release. It
// returns how many intervals, and page notices in them, it reported.
func (tp *Proc) barrierArrive(id, ep int32) (ivs, pgs int) {
	tp.tr.DisableAsync(tp.sp)
	recs := tp.since(tp.lastBarrierVC)
	tp.tr.EnableAsync(tp.sp)
	for _, r := range recs {
		pgs += len(r.pages)
	}
	rep := tp.call(0, blocked("barrier %d episode %d (arrive at manager 0)", int(id), int(ep)),
		tp.outgoing(msg.Message{
			Kind:      msg.KBarrierArrive,
			Barrier:   id,
			Episode:   ep,
			VC:        tp.vc.Ints(),
			Intervals: tp.toWire(recs),
		}))
	if rep.Kind != msg.KBarrierRelease {
		panic(fmt.Sprintf("tmk: bad barrier release %v", rep.Kind))
	}
	tp.tr.DisableAsync(tp.sp)
	tp.applyIntervals(rep.Intervals)
	tp.endEpoch()
	tp.barrier.episode++
	tp.tr.EnableAsync(tp.sp)
	return len(recs), pgs
}

// barrierRelease is the manager's half of Barrier: wait for the n−1 client
// arrivals (their intervals are applied on receipt by the handler), then
// release each client with exactly what it lacks. For the causal view each
// release answers the arrival that enabled it: every kept arrival takes the
// last arrival's span, or none (0: the manager's own timeline) if the
// manager was itself the straggler, before it is replied to. Parenting on
// the client's own arrival would mis-attribute every client's wait to its
// own round-trip instead of the straggler's lateness.
func (tp *Proc) barrierRelease(id, ep int32, start sim.Time) {
	clients := tp.n - 1
	tp.blockedOn = blocked("barrier %d episode %d (awaiting %d arrivals)", int(id), int(ep), clients)
	for len(tp.barrier.arrivals) < clients {
		tp.sp.WaitOn(tp.barrier.cond)
	}
	tp.blockedOn = entity{}

	var enabling uint64
	if tp.barrier.lastArriveT > start {
		enabling = tp.barrier.lastArrive
	}
	// The manager receives no release; whatever enabled the releases is
	// also what unblocks its mainline after the barrier.
	tp.observeCausal(trace.KindUnblock, enabling)

	tp.tr.DisableAsync(tp.sp)
	arrivals := tp.barrier.arrivals
	tp.barrier.arrivals = tp.barrier.spare[:0]
	tp.endEpoch()
	for i := range arrivals {
		req := &arrivals[i]
		if req.Barrier != id {
			panic(fmt.Sprintf("tmk: barrier mismatch: rank %d at %d, child %d at %d",
				tp.rank, id, req.ReplyTo, req.Barrier))
		}
		req.Span = enabling
		recs := tp.since(VC(req.VC))
		tp.tr.Reply(tp.sp, req, tp.outgoing(msg.Message{
			Kind:      msg.KBarrierRelease,
			Barrier:   id,
			Episode:   req.Episode,
			Intervals: tp.toWire(recs),
		}))
	}
	tp.barrier.episode++
	tp.barrier.spare = arrivals
	tp.tr.EnableAsync(tp.sp)
}

// endEpoch fixes the barrier's vector clock. It runs under the mask that
// applied the release (the manager: before it builds any), where tp.vc is
// the same on every rank; once a client is released and delivery is on, its
// next arrival can be merged before Barrier returns. A home-based run also drops
// what nobody can ask for again: every rank is past the previous barrier, so
// its interval records go, and all but the newest notice per writer up to it
// (only the newest is ever read).
func (tp *Proc) endEpoch() {
	prev := tp.lastBarrierVC
	tp.lastBarrierVC = tp.vc.Clone()
	if !tp.homeBased {
		return
	}
	tp.store.pruneThrough(prev)
	for _, pm := range tp.pages {
		if pm != nil {
			pm.keepNewest(prev)
		}
	}
}

// handleBarrierArrive runs at the manager when a client arrives.
func (tp *Proc) handleBarrierArrive(req *msg.Message) {
	if req.Episode != tp.barrier.episode {
		panic(fmt.Sprintf("tmk: barrier episode skew: rank %d at %d, child %d at %d",
			tp.rank, tp.barrier.episode, req.ReplyTo, req.Episode))
	}
	tp.applyIntervals(req.Intervals)
	tp.barrier.lastArrive, tp.barrier.lastArriveT = req.Span, tp.sp.Now()
	tp.barrier.arrivals = keepRequest(tp.barrier.arrivals, req)
	tp.barrier.cond.Broadcast()
}
