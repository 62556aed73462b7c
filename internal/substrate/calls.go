package substrate

import (
	"math/bits"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Exchange describes one family of calls to the table. The core's own is
// the two-sided request/reply call; a binding whose interconnect has
// another acknowledged frame format (rdmagm's verbs) declares one more and
// shares the table, the clock, the stale-answer count and the give-up rule.
type Exchange struct {
	// Await blocks for at most one arrival, resolves the call it answers,
	// and reports whether there was one. It returns no later than deadline
	// (0 = none) and whenever Wire.PeerGone wakes it.
	Await func(p *sim.Proc, deadline sim.Time) bool
	// Resend re-issues a call's kept frame from the waiting process without
	// parking it (the waiter is also who drains the answers) and reports
	// whether the frame left; a local stall spends no retry.
	Resend func(p *sim.Proc, pc *Call) bool
	// RTO is the user-level retransmission clock and MaxRetries its budget;
	// the zero Backoff means the wire recovers losses below the core.
	RTO        Backoff
	MaxRetries int
	// Grace, when set, makes silence corroborate exhaustion: a spent budget
	// against a peer heard within Grace is congestion, not death, and is
	// extended at the maximum backoff until the peer falls silent
	// (Liveness.HeardWithin).
	Grace sim.Time

	// lent holds, per context of the owning process (mainline, handler),
	// the calls of this family the last wait there handed to its caller
	// (Lend), until the next wait there reclaims them (Reclaim).
	lent [2][]*Call
}

// Call is one outstanding exchange awaiting its answer (Pending,
// PendingVerb). The table is keyed by seq alone: sequence numbers are
// unique per sender, and must identify the call by themselves because a
// forwarded request is answered by a third node, not the rank it was sent
// to.
//
// A Call is a record the core recycles, with the storage it owns: its
// frame, from Open until it resolves (what a re-issue sends), and its
// answer — the decoded reply, a Get's bytes. A wait that returns its
// calls lends them to its caller (Lend), and the record, its reply and
// its data stay valid until the next wait of the same family in the same
// context of the process begins (Reclaim); the record is reused after
// that.
type Call struct {
	x         *Exchange
	dst       int
	seq       uint32
	kind      msg.Kind
	done      bool
	reply     *msg.Message
	data      []byte // opaque completion payload (a Get's bytes)
	err       error  // typed failure; nil on success and until done
	issued    sim.Time
	completed sim.Time

	// Re-issue state: the encoded frame, and the per-call retransmission
	// clock; 0 = none.
	body     []byte
	span     uint64
	deadline sim.Time
	attempts int // retransmissions so far

	dec  *msg.Decoder // holds reply once matched
	keep []byte       // storage data is copied into
	lent bool         // in its family's lent list

	cont *continued // a continued reply's frames, made when the record first carries one
}

// continued is a call's reply continued across frames as it comes in
// (takeFrame): how many frames it spans, those matched so far (one bit per
// index), the diffs each carried, their bytes, every frame's diffs in
// frame order — the reply's Diffs — and the decoders holding the data of
// the frames matched after the first. A record keeps it, and its storage,
// for the calls it carries next.
type continued struct {
	frames int
	got    uint32
	parts  [MaxFrames]uint16
	size   int
	diffs  []msg.Diff
	more   [MaxFrames - 1]*msg.Decoder
	nmore  int
}

func (pc *Call) Dst() int            { return pc.dst }
func (pc *Call) Seq() uint32         { return pc.seq }
func (pc *Call) Done() bool          { return pc.done }
func (pc *Call) Reply() *msg.Message { return pc.reply }
func (pc *Call) Data() []byte        { return pc.data }
func (pc *Call) Err() error          { return pc.err }
func (pc *Call) Issued() sim.Time    { return pc.issued }
func (pc *Call) Completed() sim.Time { return pc.completed }

// Frame returns the kept encoded frame and its causal trace span.
func (pc *Call) Frame() (body []byte, span uint64) { return pc.body, pc.span }

// FrameBuf returns the call's frame storage resized to n bytes and keeps
// it as the frame: a binding encodes its frame into it before the first
// transmission. The storage grows to the largest frame the record has
// carried, exactly.
func (pc *Call) FrameBuf(n int) []byte {
	pc.body = sized(pc.body, n)
	return pc.body
}

// sized returns b resized to n bytes, or new storage of exactly n bytes if
// b has less.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// Arm starts the retransmission clock; call it once the first copy has
// actually been staged (the transmit may have waited for a send slot).
func (pc *Call) Arm(now sim.Time) {
	if rto := pc.x.RTO.Initial; rto > 0 {
		pc.deadline = now + rto
	}
}

// Call implements Transport.
func (c *Core) Call(p *sim.Proc, dst int, req *msg.Message) *msg.Message {
	cx := c.ctx(p)
	cx.one[0] = c.CallBegin(p, dst, req)
	return c.Collect(p, cx.one[:])[0]
}

// NextSeq allocates the sequence number of the next outbound exchange.
func (c *Core) NextSeq() uint32 {
	c.seq++
	return c.seq
}

// Open registers one outstanding call of family x under seq in a recycled
// record, keeping span for re-issue; the caller writes the frame into the
// call's storage (FrameBuf), transmits the first copy and Arms it. A call
// toward a peer already declared dead resolves at once and must not be
// transmitted.
func (c *Core) Open(p *sim.Proc, x *Exchange, dst int, seq uint32, span uint64) *Call {
	var pc *Call
	if k := len(c.free); k > 0 {
		pc, c.free = c.free[k-1], c.free[:k-1]
	} else {
		pc = new(Call)
	}
	*pc = Call{x: x, dst: dst, seq: seq, span: span, issued: p.Now(), body: pc.body[:0], dec: pc.dec, keep: pc.keep, cont: pc.cont}
	c.pending[seq] = pc
	if x == &c.calls {
		c.open++
	}
	if c.Live.Dead(dst) {
		c.giveUp(p, pc, "peer-dead", 0)
	}
	return pc
}

// CallBegin implements Transport: transmit the request and register the
// outstanding call with its clock armed; Collect does the waiting.
func (c *Core) CallBegin(p *sim.Proc, dst int, req *msg.Message) Pending {
	if dst == c.rank {
		panic("substrate: Call to self")
	}
	span := c.stamp(p, dst, req)
	pc := c.Open(p, &c.calls, dst, req.Seq, span)
	pc.kind = req.Kind
	if pc.done {
		return pc
	}
	pc.body = req.EncodeTo(pc.body)
	c.stats.RequestsSent++
	c.wire.Transmit(p, dst, LaneRequest, req.Kind, pc.body, span)
	pc.Arm(p.Now())
	return pc
}

// Collect implements Transport: wait on the binding's reply channel until
// every pending call resolves, matching replies in arrival order. The
// calls of the previous Collect in this context are reclaimed first; the
// result slice is the context's, refilled by its next Collect.
func (c *Core) Collect(p *sim.Proc, pending []Pending) []*msg.Message {
	c.Reclaim(p, &c.calls, nil)
	for Step(c, p, pending) > 0 {
	}
	cx := c.ctx(p)
	out := cx.replies[:0]
	for _, pd := range pending {
		out = append(out, pd.(*Call).reply)
	}
	cx.replies = out
	Lend(c, p, pending)
	return out
}

// Lend records that a wait in p's context hands the calls hs to its
// caller: they stay valid until the next wait of their family in the same
// context reclaims them.
func Lend[H any](c *Core, p *sim.Proc, hs []H) {
	lvl := level(p)
	for _, h := range hs {
		if pc := any(h).(*Call); !pc.lent {
			pc.lent = true
			pc.x.lent[lvl] = append(pc.x.lent[lvl], pc)
		}
	}
}

// Reclaim recycles the calls of family x that the previous wait in p's
// context lent, except those busy (if not nil) reports the binding still
// uses. A wait calls it before it waits: from then on nobody in that
// context holds a handle from the previous one, and a handler, which may
// interrupt its mainline anywhere, has lent lists of its own.
func (c *Core) Reclaim(p *sim.Proc, x *Exchange, busy func(*Call) bool) {
	lvl := level(p)
	kept := x.lent[lvl][:0]
	for _, pc := range x.lent[lvl] {
		if busy != nil && busy(pc) {
			kept = append(kept, pc)
			continue
		}
		pc.lent, pc.reply, pc.data, pc.err = false, nil, nil, nil
		if ct := pc.cont; ct != nil {
			c.decs = append(c.decs, ct.more[:ct.nmore]...)
			*ct = continued{diffs: ct.diffs[:0]}
		}
		c.free = append(c.free, pc)
	}
	clear(x.lent[lvl][len(kept):])
	x.lent[lvl] = kept
}

// Step is one turn of the one wait loop, over the calls hs of one family:
// if any is still open it waits for one arrival or the earliest deadline,
// then re-issues exactly the calls whose deadline has hit — each keeps its
// own, so a lost answer re-issues only its own frame while unrelated calls
// ride out the wait untouched. It reports how many calls were open: loop
// until zero, or until the resource the caller is short of frees up.
func Step[H any](c *Core, p *sim.Proc, hs []H) int {
	var x *Exchange
	open, deadline := 0, sim.Time(0)
	for _, h := range hs {
		pc, ok := any(h).(*Call)
		if !ok {
			panic("substrate: wait on a foreign handle")
		}
		if pc.done {
			continue
		}
		if pc.deadline != 0 && (deadline == 0 || pc.deadline < deadline) {
			deadline = pc.deadline
		}
		x = pc.x
		open++
	}
	if open == 0 || x.Await(p, deadline) {
		return open
	}
	now := p.Now()
	for _, h := range hs {
		if pc := any(h).(*Call); !pc.done && pc.deadline != 0 && pc.deadline <= now {
			c.reissue(p, pc)
		}
	}
	return open
}

// Lookup returns the open call of family x that an answer carrying seq
// resolves. With none — its frame was re-issued (RTO, GM-level
// redelivery) and both copies were answered — the answer is counted stale.
func (c *Core) Lookup(p *sim.Proc, x *Exchange, seq uint32, from int) *Call {
	if pc := c.pending[seq]; pc != nil && pc.x == x {
		return pc
	}
	c.stale(p, from)
	return nil
}

// stale counts an answer no open call is waiting for.
func (c *Core) stale(p *sim.Proc, from int) {
	c.stats.StaleReplies++
	if tr := p.Sim().Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(p.Now()), Kind: "stale-reply",
			Proc: p.ID(), Peer: from})
	}
}

// match resolves the call a reply answers — for a reply continued across
// frames, once its last frame is in.
func (c *Core) match(p *sim.Proc, m *msg.Message) {
	pc := c.Lookup(p, &c.calls, m.Seq, int(m.From))
	done := pc != nil
	if done {
		if i, n := m.Frame(); n > 1 {
			done = c.takeFrame(p, pc, m, i, n)
		} else {
			c.take(p, pc, m)
		}
	}
	if !done {
		// A stale reply, or an earlier frame of a continued one: no call span
		// carries its acceptance.
		p.Sim().Tracer().Arrive(int64(c.ctx(p).arrived), p.ID(), m.Span)
		return
	}
	c.Complete(pc, nil, nil)
	c.stats.RepliesRecvd++
	c.stats.ReplyWaitTime += pc.completed - pc.issued
	if tr := p.Sim().Tracer(); tr != nil {
		// The span ends at its reply's arrival and carries the reply's span:
		// it is the reply's acceptance and, in the causal view, what unblocks
		// the rank's mainline. It carries its reply's bytes, every frame's,
		// as a serve span its request's.
		bytes := 0
		if pc.cont != nil {
			bytes = pc.cont.size
		}
		if bytes == 0 {
			bytes = m.EncodedSize()
		}
		emit(tr, trace.Event{T: int64(pc.issued), Dur: int64(c.ctx(p).arrived - pc.issued),
			Kind: "call:" + pc.kind.String(), Proc: p.ID(), Peer: pc.dst, Bytes: bytes,
			Rank: c.rank, B: int(m.Span)})
	}
}

// take makes m the call's reply. m was decoded into the context's spare
// decoder: the call takes it, and gives the decoder of its record's
// previous use, whose reply nobody holds any more, in exchange.
func (c *Core) take(p *sim.Proc, pc *Call, m *msg.Message) {
	cx := c.ctx(p)
	pc.reply = m
	pc.dec, cx.spare = cx.spare, pc.dec
}

// takeFrame files frame i of a reply continued across n frames into its
// call and reports whether it was the last one missing. The first frame to
// arrive becomes the call's reply, as a one-frame reply does, its diffs
// copied into the call's own list; each later one's diffs are spliced
// into the list at their place in frame order, so frames may arrive in any
// order, and the call keeps the decoder holding their data, the context
// taking a free one as its spare. The reply's Diffs is the list. A frame
// the call already holds — a duplicate request is answered with every
// frame — or one that disagrees with the reply's frame count is stale.
func (c *Core) takeFrame(p *sim.Proc, pc *Call, m *msg.Message, i, n int) bool {
	if pc.cont == nil {
		pc.cont = new(continued)
	}
	ct := pc.cont
	if n > MaxFrames || i < 0 || i >= n || ct.got&(1<<i) != 0 || (ct.got != 0 && ct.frames != n) {
		c.stale(p, int(m.From))
		return false
	}
	if ct.got == 0 {
		c.take(p, pc, m)
		ct.frames = n
		// Room for every frame at this one's size: the list grows once.
		ct.diffs = append(slices.Grow(ct.diffs[:0], n*len(m.Diffs)), m.Diffs...)
	} else {
		at := 0
		for _, k := range ct.parts[:i] {
			at += int(k)
		}
		ct.diffs = slices.Insert(ct.diffs, at, m.Diffs...)
		cx := c.ctx(p)
		ct.more[ct.nmore], ct.nmore, cx.spare = cx.spare, ct.nmore+1, nil
		if k := len(c.decs); k > 0 {
			cx.spare, c.decs = c.decs[k-1], c.decs[:k-1]
		}
	}
	pc.reply.Diffs = ct.diffs
	ct.parts[i] = uint16(len(m.Diffs))
	ct.got |= 1 << i
	ct.size += m.EncodedSize()
	return bits.OnesCount32(ct.got) == n
}

// Complete retires a call with its outcome: the reply already attached, a
// binding's own payload — copied into storage the call owns, so data may
// alias a receive buffer — or the typed failure.
func (c *Core) Complete(pc *Call, data []byte, err error) {
	delete(c.pending, pc.seq)
	if pc.x == &c.calls {
		c.open--
	}
	if len(data) > 0 {
		pc.keep = sized(pc.keep, len(data))
		copy(pc.keep, data)
		data = pc.keep
	} else {
		data = nil
	}
	if err != nil {
		pc.reply = nil // a reply continued across frames may be partly in
	}
	pc.data, pc.err, pc.done, pc.completed = data, err, true, c.proc.Sim().Now()
}

// giveUp abandons one outstanding call permanently and declares its peer
// dead (idempotently), which resolves everything else open toward the
// peer the same way and records the typed failure for the caller to
// surface.
func (c *Core) giveUp(p *sim.Proc, pc *Call, kind string, attempts int) {
	c.Complete(pc, nil, &PeerUnreachableError{Rank: c.rank, Peer: pc.dst, Attempts: attempts, Kind: kind})
	c.stats.SendsAbandoned++
	if tr := p.Sim().Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(p.Now()), Kind: "send-abandoned:" + kind,
			Proc: p.ID(), Peer: pc.dst})
	}
	c.Live.DeclareDead(pc.dst, kind, attempts)
}

// reissue re-sends one call whose retransmission deadline has hit, or
// gives it up once its budget is spent. The duplicate is safe end to end:
// receivers deduplicate on (origin, seq) and resend the cached reply, and
// whichever reply loses the race is absorbed as a StaleReply.
func (c *Core) reissue(p *sim.Proc, pc *Call) {
	x, tr := pc.x, p.Sim().Tracer()
	switch {
	case pc.attempts < x.MaxRetries:
	case x.Grace > 0 && c.Live.HeardWithin(pc.dst, x.Grace):
		c.stats.RetryExtensions++
	default:
		c.giveUp(p, pc, "retry-exhausted", pc.attempts+1)
		return
	}
	if t0 := p.Now(); x.Resend(p, pc) {
		pc.attempts = min(pc.attempts+1, x.MaxRetries)
		c.stats.Retransmits++
		if tr != nil {
			emit(tr, trace.Event{T: int64(t0), Kind: "retransmit",
				Proc: p.ID(), Peer: pc.dst, Bytes: len(pc.body)})
		}
	}
	pc.deadline = p.Now() + x.RTO.Delay(pc.attempts+1)
}
