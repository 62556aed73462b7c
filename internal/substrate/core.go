package substrate

import (
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lane names the channel a frame rides and whether it is a first copy;
// a binding maps it to its own addressing (fastgm: async vs sync port,
// udpgm: request vs reply socket) and checks (fastgm's reply slots).
type Lane uint8

const (
	LaneRequest Lane = iota // a request's first copy (Call, CallBegin, Send)
	LaneRelay               // a relayed or repeated request: forward or retransmission
	LaneReply               // a reply, fresh or resent from the duplicate cache
)

// Wire is everything a binding provides beneath the core: how one frame
// leaves, how the next reply is awaited, and what a peer's death means
// for the binding's own resources.
type Wire interface {
	// Transmit ships one already-encoded message toward dst. It may block
	// (send buffers, tokens) and owns the BytesSent count. It reads body
	// only until it returns: the core reuses its storage. span is the
	// frame's causal trace span (0 for none), uncharged metadata that rides
	// beside it and must ride again with every retransmission.
	Transmit(p *sim.Proc, dst int, lane Lane, kind msg.Kind, body []byte, span uint64)
	// AwaitReply blocks for the next reply and returns it decoded into
	// into's storage, with arrival already recorded (Heard, Core.Arrived,
	// BytesRecvd). It returns nil when deadline (0 = none) passes first,
	// when PeerGone woke the wait, or when the arrival was unusable.
	AwaitReply(p *sim.Proc, deadline sim.Time, into *msg.Decoder) *msg.Message
	// PeerGone releases the binding's per-peer state for a dead peer and
	// wakes a collector blocked without a deadline. Scheduler or process
	// context.
	PeerGone(peer int)
}

// Core is the protocol half of a substrate, written once: sequence
// numbers and the table of outstanding calls (requests, and any other
// acknowledged exchange a binding declares), the retransmission clock,
// the (origin, seq) duplicate filter with its cached replies, the causal
// view's frame events and peer liveness. A binding embeds it,
// implements Wire, and keeps only what its interconnect is.
type Core struct {
	wire    Wire
	rank    int
	size    int
	proc    *sim.Proc
	handler Handler
	stats   Stats

	Live Liveness

	dup *DupCache

	seq     uint32
	pending map[uint32]*Call
	calls   Exchange // the two-sided request/reply family
	open    int      // calls of that family in pending (OpenCalls)

	free []*Call        // call records no one holds (Reclaim), reused by Open
	decs []*msg.Decoder // decoders of continued replies' frames no call holds (Reclaim)
	cx   [2]context     // the mainline's and the handler's storage (ctx)
}

// context is the storage one context of the owning process — its mainline
// or its interrupt handler — encodes and decodes in. Handlers do not nest
// and a mainline never runs inside its handler, so one of each suffices:
// whatever a context holds while it parks (a transmit waiting for a send
// buffer, a Collect) is out of the other's reach.
type context struct {
	frame   []byte         // relays and one-way requests, valid until Transmit returns
	req     msg.Decoder    // arriving requests (RequestDecoder)
	spare   *msg.Decoder   // where the next awaited reply is decoded (match)
	replies []*msg.Message // Collect's result
	one     [1]Pending     // Call's pending list
	arrived sim.Time       // when the frame being admitted or matched arrived (Arrived)
}

// level is p's context: 1 in its interrupt handler, 0 on its mainline.
func level(p *sim.Proc) int {
	if p.InHandler() {
		return 1
	}
	return 0
}

// ctx returns the storage of p's current context.
func (c *Core) ctx(p *sim.Proc) *context { return &c.cx[level(p)] }

// RequestDecoder returns the decoder a binding decodes an arriving request
// into, in p's current context. The request is valid until its service
// ends — Serve or AnswerDup returns — and whoever keeps any of it longer
// (the handler) copies it.
func (c *Core) RequestDecoder(p *sim.Proc) *msg.Decoder { return &c.ctx(p).req }

// Init prepares the core of process rank of size for the binding w. rto
// is the user-level per-call retransmission clock and maxRetries its
// budget; the zero Backoff means the wire recovers losses below the core
// (GM-level retransmission) and calls carry no clock.
func (c *Core) Init(w Wire, rank, size int, rto Backoff, maxRetries int) {
	c.wire, c.rank, c.size = w, rank, size
	c.dup = NewDupCache()
	c.pending = make(map[uint32]*Call)
	c.calls = Exchange{RTO: rto, MaxRetries: maxRetries,
		Await: func(p *sim.Proc, deadline sim.Time) bool {
			cx := c.ctx(p)
			if cx.spare == nil {
				cx.spare = new(msg.Decoder)
			}
			m := c.wire.AwaitReply(p, deadline, cx.spare)
			if m != nil {
				c.match(p, m)
			}
			return m != nil
		},
		Resend: func(p *sim.Proc, pc *Call) bool {
			c.stats.RequestsSent++
			c.wire.Transmit(p, pc.dst, LaneRelay, pc.kind, pc.body, pc.span)
			return true
		}}
	c.Live.init(c)
}

// OpenCalls returns how many two-sided calls await their replies.
func (c *Core) OpenCalls() int { return c.open }

// SetWire re-points the core at w: a binding layered on another (rdmagm on
// fastgm) takes over the wire it extends.
func (c *Core) SetWire(w Wire) { c.wire = w }

// Attach records the owning process and request handler; a binding's
// Start calls it first.
func (c *Core) Attach(p *sim.Proc, h Handler) { c.proc, c.handler = p, h }

// Rank returns this process's rank.
func (c *Core) Rank() int { return c.rank }

// Size returns the number of processes.
func (c *Core) Size() int { return c.size }

// Proc returns the owning process (nil before Start).
func (c *Core) Proc() *sim.Proc { return c.proc }

// Stats returns the transport counters.
func (c *Core) Stats() *Stats { return &c.stats }

// DisableAsync masks asynchronous request delivery (TreadMarks'
// sigprocmask around consistency-critical sections).
func (c *Core) DisableAsync(p *sim.Proc) { p.DisableInterrupts() }

// EnableAsync unmasks it, servicing anything queued.
func (c *Core) EnableAsync(p *sim.Proc) { p.EnableInterrupts() }

// SetOnPeerDead implements Transport.
func (c *Core) SetOnPeerDead(fn func(peer int, err error)) { c.Live.onDead = fn }

// PeerFailure implements Transport.
func (c *Core) PeerFailure() *PeerUnreachableError { return c.Live.failure }

// peerGone is the cleanup after a death: every call of every family still
// open toward the peer resolves with err, ascending by seq, before the
// binding releases its own state (which wakes whoever was waiting on those
// calls).
func (c *Core) peerGone(err *PeerUnreachableError) {
	peer := err.Peer
	for _, seq := range KeysWhere(c.pending, func(pc *Call) bool { return pc.dst == peer }) {
		c.Complete(c.pending[seq], nil, err)
		c.stats.SendsAbandoned++
	}
	c.wire.PeerGone(peer)
}

// KeysWhere returns, ascending, the keys of m whose values satisfy pred:
// the deterministic order every per-peer purge iterates in.
func KeysWhere[V any](m map[uint32]V, pred func(V) bool) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k, v := range m {
		if pred(v) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// emit records one substrate-layer trace event. Callers check the tracer
// for nil first, so an event kind built by concatenation costs nothing
// with tracing off.
func emit(tr *trace.Tracer, ev trace.Event) {
	ev.Layer = trace.LayerSubstrate
	tr.Emit(ev)
}

// Arrived records that m, whose frame carried span, arrives now in p's
// context: the time, where Serve's or match's span starts or ends, and
// its causal span in m.Span (0 untraced: no frame carries one). Admit
// calls it for a request, a binding for each reply AwaitReply returns.
func (c *Core) Arrived(p *sim.Proc, m *msg.Message, span uint64) {
	c.ctx(p).arrived = p.Now()
	m.Span = span
}

// Admit runs the arrival half of request service for a decoded request
// of n wire bytes: its arrival (Arrived), counters, and the (origin, seq)
// duplicate filter. It returns nil for a fresh request, which the binding
// hands to Serve once it has disposed of the receive buffer, or the
// recorded entry for a duplicate, to hand to AnswerDup.
func (c *Core) Admit(p *sim.Proc, m *msg.Message, span uint64, n int) *DupEntry {
	c.Arrived(p, m, span)
	c.stats.RequestsRecvd++
	c.stats.BytesRecvd += int64(n)
	key := DupKey{Origin: m.ReplyTo, Seq: m.Seq}
	if e, seen := c.dup.Lookup(key); seen {
		c.stats.DupRequests++
		if tr := p.Sim().Tracer(); tr != nil { // A: the copy's span, accepted again
			emit(tr, trace.Event{T: int64(p.Now()), Kind: "dup-request",
				Proc: p.ID(), Peer: int(m.From), Bytes: n, A: int(m.Span)})
		}
		return e
	}
	c.dup.Insert(key)
	return nil
}

// AnswerDup answers a redelivered request idempotently: resend the
// cached reply if it was answered, re-relay if it was forwarded (the
// first relay chain may have been lost; downstream filters absorb
// extras), or drop it if the original is still being served — the
// eventual reply covers both copies.
func (c *Core) AnswerDup(p *sim.Proc, m *msg.Message, e *DupEntry) {
	if e.Done {
		c.sendReply(p, e, m.Kind)
	} else if e.ForwardedTo >= 0 {
		m.From = int32(c.rank)
		c.stats.ForwardsSent++
		c.wire.Transmit(p, e.ForwardedTo, LaneRelay, m.Kind, c.encode(p, m), e.FwdSpan)
	}
}

// sendReply transmits e's cached reply, every frame of it, holding the
// slot's storage for as long as the wire reads it (DupEntry.sending).
func (c *Core) sendReply(p *sim.Proc, e *DupEntry, kind msg.Kind) {
	e.sending++
	c.wire.Transmit(p, e.To, LaneReply, kind, e.Reply, e.ReplySpan)
	if mf := e.more; mf != nil {
		for k, body := range mf.bodies {
			c.wire.Transmit(p, e.To, LaneReply, kind, body, mf.spans[k])
		}
	}
	e.sending--
}

// encode encodes m into p's context's frame storage: a frame no call and
// no filter slot keeps, valid until the Transmit it is handed to returns.
func (c *Core) encode(p *sim.Proc, m *msg.Message) []byte {
	cx := c.ctx(p)
	cx.frame = m.EncodeTo(cx.frame)
	return cx.frame
}

// Serve runs the handler on a fresh request and records its serve span.
// The span starts at the request's arrival and carries its span: it is
// the request's acceptance in the causal view.
func (c *Core) Serve(p *sim.Proc, m *msg.Message, n int) {
	start := c.ctx(p).arrived
	c.handler(p, m)
	if tr := p.Sim().Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(start), Dur: int64(p.Now() - start),
			Kind: "serve:" + m.Kind.String(), Proc: p.ID(), Peer: int(m.From), Bytes: n,
			A: int(m.Span)})
	}
}

// edge records a frame's send for the causal view and returns the span it
// carries (0 untraced); parent is a span, 0 or trace.Mainline.
func (c *Core) edge(p *sim.Proc, prefix string, kind msg.Kind, dst, parent, n int) uint64 {
	tr := p.Sim().Tracer()
	if tr == nil {
		return 0
	}
	return tr.Send(trace.Event{T: int64(p.Now()), Kind: prefix + kind.String(),
		Proc: p.ID(), Rank: c.rank, Peer: dst, Bytes: n, B: parent})
}

// Reply implements Transport: the reply goes to the request's originator
// and its encoded form is cached in the duplicate filter — in the storage
// of the request's slot — so a redelivered request is answered without
// re-executing it. The encoding copies: nothing rep referenced is read
// after this returns. A reply continued across frames is one Reply per
// frame, in frame order (msg.Message.SetFrame): each frame is sent as it
// is encoded and cached after the ones before it, and the request counts
// as answered — a duplicate is answered with every frame — once the last
// is.
func (c *Core) Reply(p *sim.Proc, req *msg.Message, rep *msg.Message) {
	origin := int(req.ReplyTo)
	rep.Seq = req.Seq
	rep.From = int32(c.rank)
	rep.ReplyTo = int32(c.rank)
	n := rep.EncodedSize()
	// A reply is caused by the request it answers.
	span := c.edge(p, "rep:", rep.Kind, origin, int(req.Span), n)
	key := DupKey{Origin: req.ReplyTo, Seq: req.Seq}
	e, ok := c.dup.Lookup(key)
	if !ok {
		e = c.dup.Insert(key)
	}
	i, frames := rep.Frame()
	if frames > MaxFrames {
		panic(fmt.Sprintf("substrate: rank %d: %v reply of %d frames exceeds the %d a call holds",
			c.rank, rep.Kind, frames, MaxFrames))
	}
	e.Done, e.To = i == frames-1, origin
	if i == 0 {
		e.Reply, e.ReplySpan = rep.EncodeTo(e.Reply), span
		if e.more != nil {
			e.more.reset()
		}
		c.stats.RepliesSent++
		c.sendReply(p, e, rep.Kind)
		return
	}
	if e.more == nil {
		e.more = new(moreFrames)
	}
	mf := e.more
	var storage []byte // the slot's from an earlier reply, if it had this frame
	if k := len(mf.bodies); k < cap(mf.bodies) {
		storage = mf.bodies[:k+1][k]
	}
	body := rep.EncodeTo(storage)
	mf.bodies, mf.spans = append(mf.bodies, body), append(mf.spans, span)
	c.stats.ContinuedFrames++
	e.sending++
	c.wire.Transmit(p, origin, LaneReply, rep.Kind, body, span)
	e.sending--
}

// Forward implements Transport: relay a request, preserving the
// originator. The relay target is recorded so a duplicate of the request
// re-triggers the forward if the first relay chain was lost.
func (c *Core) Forward(p *sim.Proc, dst int, req *msg.Message) {
	req.From = int32(c.rank)
	body := c.encode(p, req)
	span := c.edge(p, "fwd:", req.Kind, dst, int(req.Span), len(body))
	if e, ok := c.dup.Lookup(DupKey{Origin: req.ReplyTo, Seq: req.Seq}); ok {
		e.ForwardedTo, e.FwdSpan = dst, span
	}
	c.stats.ForwardsSent++
	c.wire.Transmit(p, dst, LaneRelay, req.Kind, body, span)
}

// Send implements Transport: a one-shot request, no reply expected.
func (c *Core) Send(p *sim.Proc, dst int, req *msg.Message) {
	span := c.stamp(p, dst, req)
	c.stats.RequestsSent++
	c.wire.Transmit(p, dst, LaneRequest, req.Kind, c.encode(p, req), span)
}

// stamp assigns an outbound request its identity and records its causal
// send edge, parented on the rank's mainline.
func (c *Core) stamp(p *sim.Proc, dst int, req *msg.Message) uint64 {
	req.Seq = c.NextSeq()
	req.From = int32(c.rank)
	req.ReplyTo = int32(c.rank)
	if p.Sim().Tracer() == nil {
		return 0
	}
	return c.edge(p, "req:", req.Kind, dst, trace.Mainline, req.EncodedSize())
}
