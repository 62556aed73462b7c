package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/trace"
)

// Lock management (paper Section 1.1 / TreadMarks): every lock has an
// assigned manager — lock id mod n.
// Acquires go to the manager, which either grants directly (when it was
// itself the last releaser — the microbenchmark's "direct" case) or
// forwards the request to the last holder it handed the lock to (the
// "indirect" case: three messages). The granter piggybacks the
// consistency intervals the requester has not yet seen; releases are
// purely local unless a forwarded request is queued.
type lockState struct {
	id int32

	// Everywhere: do we currently hold the grant token, and is the lock
	// logically held by the application?
	haveToken bool
	held      bool

	// Queued forwarded acquires to grant at our next release, copied
	// (keepRequest); spare is the storage the last release served from.
	waiters []msg.Message
	spare   []msg.Message

	// Manager only: the process at the tail of the forwarding chain (the
	// last requester we pointed the lock at).
	tail int
}

func (tp *Proc) lockManager(id int32) int { return int(id) % tp.n }

func (tp *Proc) lock(id int32) *lockState {
	ls := tp.locks[id]
	if ls == nil {
		ls = &lockState{id: id, tail: tp.lockManager(id)}
		// The manager starts with the token.
		ls.haveToken = tp.lockManager(id) == tp.rank
		tp.locks[id] = ls
	}
	return ls
}

// LockAcquire obtains the distributed lock, applying the consistency
// information piggybacked on the grant (lazy release consistency).
func (tp *Proc) LockAcquire(id int32) {
	start := tp.sp.Now()
	ls := tp.lock(id)
	if ls.held {
		panic(fmt.Sprintf("tmk: rank %d: recursive acquire of lock %d", tp.rank, id))
	}
	if ls.haveToken {
		// We were the last releaser and nobody has been forwarded the
		// lock since: purely local re-acquire.
		ls.held = true
		tp.stats.LockAcquiresLocal++
		tp.observe(event{kind: trace.KindLockLocal, id: id, peer: tp.lockManager(id)})
		return
	}
	mgr := tp.lockManager(id)
	var rep *msg.Message
	if mgr == tp.rank {
		// We are the manager but some other process holds the token:
		// send the acquire down the chain ourselves.
		tail := ls.tail
		ls.tail = tp.rank
		rep = tp.call(tail, blocked("lock %d (acquire from chain tail %d)", int(id), tail),
			tp.outgoing(msg.Message{Kind: msg.KLockAcquire, Lock: id, VC: tp.vc.Ints()}))
	} else {
		rep = tp.call(mgr, blocked("lock %d (acquire via manager %d)", int(id), mgr),
			tp.outgoing(msg.Message{Kind: msg.KLockAcquire, Lock: id, VC: tp.vc.Ints()}))
	}
	if rep.Kind != msg.KLockGrant {
		panic(fmt.Sprintf("tmk: bad lock grant %v", rep.Kind))
	}
	tp.tr.DisableAsync(tp.sp)
	tp.applyIntervals(rep.Intervals)
	ls.held = true
	ls.haveToken = true
	tp.tr.EnableAsync(tp.sp)
	tp.stats.LockAcquiresRemote++
	tp.stats.LockWait += tp.sp.Now() - start
	tp.observe(event{kind: trace.KindLockAcquire, start: start, dur: tp.sp.Now() - start, id: id, peer: mgr})
}

// LockRelease releases the lock. The release itself is local; if a
// forwarded acquire is queued here, the grant (with piggybacked
// intervals) goes out now.
func (tp *Proc) LockRelease(id int32) {
	ls := tp.lock(id)
	if !ls.held {
		panic(fmt.Sprintf("tmk: rank %d: release of unheld lock %d", tp.rank, id))
	}
	ls.held = false
	tp.observe(event{kind: trace.KindLockRelease, id: id, peer: -1})
	tp.serveLockWaiters(ls)
}

// serveLockWaiters grants to the oldest queued request, if any. Any
// remaining waiters are forwarded to the new holder — the token carries
// its queue with it, preserving FIFO order and the invariant that a
// grant always comes from the process holding the freshest release.
func (tp *Proc) serveLockWaiters(ls *lockState) {
	if ls.held || !ls.haveToken || len(ls.waiters) == 0 {
		return
	}
	waiters := ls.waiters
	ls.waiters = ls.spare[:0]
	req := &waiters[0]
	tp.grantLock(ls, req)
	for i := range waiters[1:] {
		tp.tr.Forward(tp.sp, int(req.ReplyTo), &waiters[1+i])
	}
	ls.spare = waiters
}

// keepRequest appends to list a copy of what tmk reads of a request after
// its handler has returned — the header and the vector clock; a barrier
// arrival's intervals were applied in the handler — reusing the storage a
// previous use left past list's end. The decoded request itself is the
// transport's, valid only while the handler runs.
func keepRequest(list []msg.Message, req *msg.Message) []msg.Message {
	n := len(list)
	if n < cap(list) {
		list = list[:n+1]
	} else {
		list = append(list, msg.Message{})
	}
	kept := &list[n]
	vc := append(kept.VC[:0], req.VC...)
	*kept = *req
	kept.VC, kept.Intervals, kept.DiffReqs, kept.Diffs, kept.PageData = vc, nil, nil, nil, nil
	return list
}

// grantLock closes our interval and ships the grant with the intervals
// the requester lacks. Under HLRC the interval close blocks in WaitVerbs
// flushing diffs home, so the whole grant runs with asynchronous delivery
// masked: a concurrent acquire serviced mid-flush would observe the token
// still present and grant it a second time.
func (tp *Proc) grantLock(ls *lockState, req *msg.Message) {
	if tp.homeBased {
		tp.tr.DisableAsync(tp.sp)
		defer tp.tr.EnableAsync(tp.sp)
	}
	tp.observe(event{kind: trace.KindLockGrant, id: ls.id, peer: int(req.ReplyTo)})
	tp.closeInterval()
	recs := tp.since(VC(req.VC))
	tp.tr.Reply(tp.sp, req, tp.outgoing(msg.Message{
		Kind:      msg.KLockGrant,
		Lock:      ls.id,
		Intervals: tp.toWire(recs),
	}))
	ls.haveToken = false
}

// handleLockAcquire services an acquire arriving at this process — as
// manager (route or grant) or as the forwarded-to last holder.
func (tp *Proc) handleLockAcquire(req *msg.Message) {
	id := req.Lock
	ls := tp.lock(id)
	if tp.lockManager(id) == tp.rank {
		if ls.tail != tp.rank {
			// Forward down the chain; the requester becomes the new tail.
			tail := ls.tail
			ls.tail = int(req.ReplyTo)
			tp.observe(event{kind: trace.KindLockForward, id: id, peer: tail, a: int(req.ReplyTo)})
			tp.tr.Forward(tp.sp, tail, req)
			return
		}
		// We are the chain tail ourselves.
		ls.tail = int(req.ReplyTo)
	}
	if ls.haveToken && !ls.held {
		tp.grantLock(ls, req)
		return
	}
	ls.waiters = keepRequest(ls.waiters, req)
}
