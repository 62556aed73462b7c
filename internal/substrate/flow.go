package substrate

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// creditTimeout is the optimistic-refresh interval: a sender parked on an
// exhausted credit this long restores one quantum on its own
// (Stats.CreditRefills), so a lost credit-return frame can degrade
// throughput but never wedge the cluster. 500 ms sits well under GM's 3 s
// resend timeout (a refresh-trickled frame that parks at a stalled
// receiver is serviced long before the sender's port would be disabled)
// but far above a healthy round trip, so refills only fire when a return
// was genuinely lost or the receiver is wedged — refilling faster would
// just re-create the incast storm the credits exist to prevent.
const creditTimeout = 500 * sim.Millisecond

// The hedge deadline is hedgeLatencyScale times the EWMA of observed reply
// latencies, floored at hedgeMinDeadline so cold starts (no latency
// history yet) and ultra-fast replies don't hedge spuriously.
const (
	hedgeLatencyScale = 4
	hedgeMinDeadline  = 500 * sim.Microsecond
)

// Credits is the sender-side credit ledger of proactive flow control,
// indexed (peer, lane): each lane has a budget mirroring the receiver
// resource it meters (fastgm: one lane per size class, in prepost
// buffers; udpgm: one lane, in socket buffer bytes; rdmagm: one lane, in
// outstanding verbs). A send with too little credit parks locally —
// counted in Stats.CreditStalls, never silent — instead of launching into
// an exhausted prepost ring and starting GM's 3 s resend-timeout →
// port-disable countdown, until the receiver's return arrives through
// Release; how a return is carried is the binding's business. A lost
// return is repaired by the optimistic refresh (creditTimeout). A
// receiver only returns credits under Policy.Flow, so a mixed cluster
// would wedge its flow-controlled senders — the reason flow control
// travels in the run's one Policy. A nil ledger (flow control off) is
// inert: no credit state, no frames, wire traffic bit-identical to a run
// without it.
type Credits struct {
	c       *Core
	cond    *sim.Cond
	budget  []int // per lane
	quantum []int // per lane: what one refresh restores
	have    [][]int
	armed   [][]bool // optimistic refresh pending

	// Park, when set, replaces parking on the ledger's condition variable
	// (rdmagm waits on its verbs toward dst: completions return the credit).
	Park func(p *sim.Proc, dst int)
}

// NewCredits builds a ledger at full budget toward every peer and
// registers it with the core (reset on peer death, woken on halt). It
// returns nil — the inert ledger — when the run's policy has flow
// control off.
func (c *Core) NewCredits(name string, budget, quantum []int) *Credits {
	if !c.pol.Flow {
		return nil
	}
	cr := &Credits{c: c, cond: sim.NewCond(name), budget: budget, quantum: quantum}
	for i := 0; i < c.size; i++ {
		cr.have = append(cr.have, append([]int(nil), budget...))
		cr.armed = append(cr.armed, make([]bool, len(budget)))
	}
	c.credits = append(c.credits, cr)
	return cr
}

// Budget returns a lane's budget; Have the credits left toward a peer.
func (cr *Credits) Budget(lane int) int     { return cr.budget[lane] }
func (cr *Credits) Have(peer, lane int) int { return cr.have[peer][lane] }

// Acquire debits n credits toward (dst, lane), parking until that many
// are available; bytes sizes the stall's trace event. Parking is safe in
// process or handler context as long as the binding's returns and the
// refresh timer run in scheduler context. Teardown or a dead peer lets
// the send proceed undebited: the recovery and abandonment layers own
// the frame's fate then.
func (cr *Credits) Acquire(p *sim.Proc, dst, lane, n, bytes int) {
	if cr == nil {
		return
	}
	c := cr.c
	for cr.have[dst][lane] < n {
		if c.halted || c.Live.Dead(dst) {
			return
		}
		c.stats.CreditStalls++
		if tr := p.Sim().Tracer(); tr != nil {
			emit(tr, trace.Event{T: int64(p.Now()), Kind: "credit-stall",
				Proc: p.ID(), Peer: dst, Bytes: bytes}, "credit.stalls", 1)
		}
		start := p.Now()
		if cr.Park != nil {
			cr.Park(p, dst)
		} else {
			cr.armRefresh(dst, lane)
			p.WaitOn(cr.cond)
		}
		c.stats.CreditWaitTime += p.Now() - start
	}
	cr.have[dst][lane] -= n
}

// armRefresh schedules the optimistic refresh for an exhausted (dst,
// lane): after the timeout with less than a quantum left, one quantum
// is restored.
func (cr *Credits) armRefresh(dst, lane int) {
	if cr.armed[dst][lane] {
		return
	}
	cr.armed[dst][lane] = true
	cr.c.proc.Sim().After(creditTimeout, func() {
		cr.armed[dst][lane] = false
		if cr.c.halted {
			cr.cond.Broadcast() // let waiters observe the halt and bail
		} else if cr.have[dst][lane] < cr.quantum[lane] {
			cr.c.stats.CreditRefills++
			cr.Release(dst, lane, cr.quantum[lane])
		}
	})
}

// Release returns n credits toward (peer, lane), clamped at the budget so
// duplicate returns can never oversubscribe the receiver.
func (cr *Credits) Release(peer, lane, n int) {
	if cr == nil || peer < 0 || peer >= len(cr.have) || lane < 0 || lane >= len(cr.budget) || n <= 0 {
		return
	}
	cr.have[peer][lane] = min(cr.have[peer][lane]+n, cr.budget[lane])
	cr.cond.Broadcast()
}

// Reset restores the full budget toward a departed or dead peer and
// wakes any sender parked on it, which then observes the dead flag.
func (cr *Credits) Reset(peer int) {
	if peer >= 0 && peer < len(cr.have) {
		copy(cr.have[peer], cr.budget)
		cr.cond.Broadcast()
	}
}
