package substrate

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Call is one outstanding request awaiting its reply (Pending). The
// table is keyed by seq alone: sequence numbers are unique per sender,
// and must identify the call by themselves because a forwarded request is
// answered by a third node, not the rank it was sent to.
type Call struct {
	dst       int
	seq       uint32
	kind      msg.Kind
	reply     *msg.Message
	done      bool
	issued    sim.Time
	completed sim.Time

	// Re-issue state. body/aux are kept only when a re-issue is possible
	// (hedging on, or the binding runs a user-level RTO). deadline is the
	// one per-call clock: the once-only hedge while hedge is set, the
	// retransmission timeout otherwise; 0 = none.
	body     []byte
	aux      []byte
	deadline sim.Time
	hedge    bool
	attempts int // retransmissions so far
}

func (pc *Call) Dst() int            { return pc.dst }
func (pc *Call) Seq() uint32         { return pc.seq }
func (pc *Call) Done() bool          { return pc.done }
func (pc *Call) Reply() *msg.Message { return pc.reply }
func (pc *Call) Issued() sim.Time    { return pc.issued }
func (pc *Call) Completed() sim.Time { return pc.completed }

// Call implements Transport.
func (c *Core) Call(p *sim.Proc, dst int, req *msg.Message) *msg.Message {
	return c.Collect(p, []Pending{c.CallBegin(p, dst, req)})[0]
}

// CallBegin implements Transport: transmit the request and register the
// outstanding call with its clock armed; Collect does the waiting. A call
// toward a peer already declared dead resolves at once, untransmitted.
func (c *Core) CallBegin(p *sim.Proc, dst int, req *msg.Message) Pending {
	if dst == c.rank {
		panic("substrate: Call to self")
	}
	body, aux := c.stamp(p, dst, req)
	pc := &Call{dst: dst, seq: req.Seq, kind: req.Kind, issued: p.Now()}
	c.pending[pc.seq] = pc
	if c.Live.Dead(dst) {
		c.giveUp(p, pc, "peer-dead", 0)
		return pc
	}
	if c.hedge.Enabled || c.rto.Initial > 0 {
		pc.body, pc.aux = body, aux
	}
	c.stats.RequestsSent++
	c.wire.Transmit(p, dst, LaneRequest, req.Kind, body, aux)
	// The clock starts once the transmit (which may park on credits) has
	// actually staged the frame. Hedge only when the latency-derived
	// deadline undercuts the retransmission clock; otherwise the RTO is
	// already the faster recovery.
	rto := c.rto.Initial
	if rto > 0 {
		pc.deadline = p.Now() + rto
	}
	if c.hedge.Enabled {
		if hd := c.hedgeDelay(); rto == 0 || hd < rto {
			pc.hedge, pc.deadline = true, p.Now()+hd
		}
	}
	return pc
}

// hedgeDelay derives the hedge deadline from the EWMA of observed reply
// latencies — what a healthy call costs — floored by the configured
// minimum so cold starts don't hedge spuriously.
func (c *Core) hedgeDelay() sim.Time {
	return max(sim.Time(float64(c.hedgeEWMA)*c.hedge.LatencyScale), c.hedge.MinDeadline)
}

// Collect implements Transport: wait on the binding's reply channel until
// every pending call resolves, matching replies in arrival order. Each
// call keeps its own deadline, so a lost reply re-issues only its own
// request while unrelated calls ride out the wait untouched.
func (c *Core) Collect(p *sim.Proc, pending []Pending) []*msg.Message {
	for {
		open, deadline := 0, sim.Time(0)
		for _, pd := range pending {
			pc, ok := pd.(*Call)
			if !ok {
				panic("substrate: Collect of a foreign Pending")
			}
			if pc.done {
				continue
			}
			if c.Live.Dead(pc.dst) {
				c.giveUp(p, pc, "peer-dead", pc.attempts)
				continue
			}
			if pc.deadline != 0 && (deadline == 0 || pc.deadline < deadline) {
				deadline = pc.deadline
			}
			open++
		}
		if open == 0 {
			break
		}
		if m := c.wire.AwaitReply(p, deadline); m != nil {
			c.match(p, m)
		} else {
			c.reissueDue(p, pending)
		}
	}
	out := make([]*msg.Message, len(pending))
	for i, pd := range pending {
		out[i] = pd.(*Call).reply
	}
	return out
}

// match resolves the call a reply answers.
func (c *Core) match(p *sim.Proc, m *msg.Message) {
	pc := c.pending[m.Seq]
	tr := p.Sim().Tracer()
	if pc == nil {
		// A reply for an already-consumed call: the request was re-issued
		// (hedge, RTO, GM-level redelivery) and both copies were answered.
		c.stats.StaleReplies++
		if tr != nil {
			emit(tr, trace.Event{T: int64(p.Now()), Kind: "stale-reply",
				Proc: p.ID(), Peer: int(m.From)}, "stale.replies", 1)
		}
		return
	}
	c.resolve(pc, m, p.Now())
	if cz := p.Sim().Causal(); cz != nil && !m.Ctx.Zero() {
		// The matched reply is what unblocks the mainline: requests the
		// rank issues next are caused by it.
		cz.SetCur(c.rank, m.Ctx)
	}
	rtt := pc.completed - pc.issued
	c.stats.RepliesRecvd++
	c.stats.ReplyWaitTime += rtt
	if c.hedge.Enabled {
		if c.hedgeEWMA == 0 {
			c.hedgeEWMA = rtt
		} else {
			c.hedgeEWMA = (3*c.hedgeEWMA + rtt) / 4
		}
	}
	if tr != nil {
		emit(tr, trace.Event{T: int64(pc.issued), Dur: int64(rtt),
			Kind: "call:" + pc.kind.String(), Proc: p.ID(), Peer: pc.dst}, "", 0)
	}
}

// resolve retires a call with its reply (nil = abandoned).
func (c *Core) resolve(pc *Call, reply *msg.Message, now sim.Time) {
	delete(c.pending, pc.seq)
	pc.done, pc.reply, pc.completed = true, reply, now
}

// giveUp abandons one outstanding call permanently: it resolves to a nil
// reply and its peer is declared dead (idempotently), so everything else
// queued toward the peer gives up too and the typed failure is recorded
// for the caller to surface.
func (c *Core) giveUp(p *sim.Proc, pc *Call, kind string, attempts int) {
	c.resolve(pc, nil, p.Now())
	c.stats.SendsAbandoned++
	if tr := p.Sim().Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(p.Now()), Kind: "send-abandoned:" + kind,
			Proc: p.ID(), Peer: pc.dst}, "sends.abandoned", 1)
	}
	c.Live.DeclareDead(pc.dst, kind, attempts)
}

// reissueDue re-sends exactly the calls whose deadline has hit. A hedge
// fires at most once per call and consumes no retry attempt: the
// duplicate is safe end to end (receivers deduplicate on (origin, seq) and
// resend the cached reply; whichever reply loses the race is absorbed as
// a StaleReply), and the retransmission clock resumes anchored at the
// original issue time so the hedge never delays the real retransmit.
func (c *Core) reissueDue(p *sim.Proc, pending []Pending) {
	now := p.Now()
	for _, pd := range pending {
		pc := pd.(*Call)
		if pc.done || pc.deadline == 0 || pc.deadline > now {
			continue
		}
		tr := p.Sim().Tracer()
		if pc.hedge {
			c.stats.HedgedRequests++
			if tr != nil {
				emit(tr, trace.Event{T: int64(now), Kind: "hedge:" + pc.kind.String(),
					Proc: p.ID(), Peer: pc.dst, Bytes: len(pc.body)}, "hedged.requests", 1)
			}
		} else if pc.attempts >= c.maxRetries {
			c.giveUp(p, pc, "retry-exhausted", pc.attempts+1)
			continue
		} else {
			pc.attempts++
			c.stats.Retransmits++
			if tr != nil {
				emit(tr, trace.Event{T: int64(p.Now()), Kind: "retransmit",
					Proc: p.ID(), Peer: pc.dst, Bytes: len(pc.body)}, "retransmits", 0)
			}
		}
		c.stats.RequestsSent++
		c.wire.Transmit(p, pc.dst, LaneRelay, pc.kind, pc.body, pc.aux)
		switch {
		case c.rto.Initial == 0:
			pc.deadline = 0
		case pc.hedge:
			if pc.deadline = pc.issued + c.rto.Initial; pc.deadline <= now {
				pc.deadline = now + c.rto.Initial
			}
		default:
			pc.deadline = p.Now() + c.rto.Delay(pc.attempts+1)
		}
		pc.hedge = false
	}
}
