package substrate

import (
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lane names the channel a frame rides and whether it is a first copy;
// a binding maps it to its own addressing (fastgm: async vs sync port,
// udpgm: request vs reply socket) and credit policy.
type Lane uint8

const (
	LaneRequest Lane = iota // a request's first copy (Call, CallBegin, Send)
	LaneRelay               // a relayed or repeated request: forward, hedge, retransmission
	LaneReply               // a reply, fresh or resent from the duplicate cache
)

// Wire is everything a binding provides beneath the core: how one frame
// leaves, how the next reply is awaited, and what a peer's death means
// for the binding's own resources.
type Wire interface {
	// Transmit ships one already-encoded message toward dst. It may block
	// (send buffers, tokens, credits) and owns the BytesSent count.
	Transmit(p *sim.Proc, dst int, lane Lane, kind msg.Kind, body, aux []byte)
	// AwaitReply blocks for the next reply and returns it decoded, with
	// arrival already recorded (Heard, causal Arrive, BytesRecvd). It
	// returns nil when deadline (0 = none) passes first, when PeerGone
	// woke the wait, or when the arrival was unusable.
	AwaitReply(p *sim.Proc, deadline sim.Time) *msg.Message
	// Probe sends one best-effort liveness probe from scheduler context
	// and reports whether it left.
	Probe(peer int) bool
	// PeerGone releases the binding's per-peer state for a dead peer and
	// wakes a collector blocked without a deadline. Scheduler or process
	// context.
	PeerGone(peer int)
}

// Core is the protocol half of a substrate, written once: sequence
// numbers and the table of outstanding calls (requests, and any other
// acknowledged exchange a binding declares), the hedge/retransmission
// clock, the (origin, seq) duplicate filter with its cached replies,
// causal edge stamping and peer liveness. A binding embeds it, implements
// Wire, and keeps only what its interconnect is.
type Core struct {
	wire    Wire
	rank    int
	size    int
	proc    *sim.Proc
	handler Handler
	stats   Stats
	halted  bool

	Live Liveness

	dup     *DupCache
	credits []*Credits

	seq       uint32
	pending   map[uint32]*Call
	calls     Exchange // the two-sided request/reply family
	pol       Policy
	hedgeEWMA sim.Time
}

// Policy is the protocol policy every process of a run must share: which
// of the failure detector, credit flow control and hedged re-issues are
// armed. A receiver only returns credits, answers probes or absorbs a
// hedged duplicate on the assumption that its peers run the same policy,
// so there is one value per run — resolved by whoever assembles the
// cluster, handed to each binding's New beside the binding's own config,
// and owned by the Core from then on. How each mechanism is tuned is a
// constant of this package, not a setting. The zero value is inert: no
// probes, no credit state, no hedges, wire traffic bit-identical to a
// run without it.
type Policy struct {
	// Liveness arms heartbeat probes and the silence rule (Liveness).
	Liveness bool
	// Flow arms credit-based flow control (Credits): a sender parks
	// locally instead of launching into an exhausted receive ring.
	Flow bool
	// Hedge arms one re-issue of a call whose reply is late against the
	// observed reply latency (hedgeDelay).
	Hedge bool
}

// Init prepares the core of process rank of size for the binding w under
// the run's policy. rto is the user-level per-call retransmission clock
// and maxRetries its budget; the zero Backoff means the wire recovers
// losses below the core (GM-level retransmission) and calls carry no
// clock.
func (c *Core) Init(w Wire, rank, size int, pol Policy, dupCacheSize int, rto Backoff, maxRetries int) {
	c.wire, c.rank, c.size = w, rank, size
	c.pol = pol
	c.dup = NewDupCache(dupCacheSize)
	c.pending = make(map[uint32]*Call)
	c.calls = Exchange{RTO: rto, MaxRetries: maxRetries,
		Await: func(p *sim.Proc, deadline sim.Time) bool {
			m := c.wire.AwaitReply(p, deadline)
			if m != nil {
				c.match(p, m)
			}
			return m != nil
		},
		Resend: func(p *sim.Proc, pc *Call) bool {
			c.stats.RequestsSent++
			c.wire.Transmit(p, pc.dst, LaneRelay, pc.kind, pc.body, pc.aux)
			return true
		}}
	c.Live.init(c)
}

// Policy returns the run's policy.
func (c *Core) Policy() Policy { return c.pol }

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

// Halted reports whether crash teardown has quiesced the transport.
func (c *Core) Halted() bool { return c.halted }

// Quiesce is the shared half of Transport.Halt: the liveness clock
// stops and senders parked on credits are released to observe the halt.
// It reports false if the transport was already halted.
func (c *Core) Quiesce() bool {
	if c.halted {
		return false
	}
	c.halted = true
	c.Live.Stop()
	for _, cr := range c.credits {
		cr.cond.Broadcast()
	}
	return true
}

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
// open toward the peer resolves with err, ascending by seq, before credits
// are restored and the binding releases its own state (which wakes whoever
// was waiting on those calls).
func (c *Core) peerGone(err *PeerUnreachableError) {
	peer := err.Peer
	for _, seq := range KeysWhere(c.pending, func(pc *Call) bool { return pc.dst == peer }) {
		c.Complete(c.pending[seq], nil, err)
		c.stats.SendsAbandoned++
	}
	for _, cr := range c.credits {
		cr.Reset(peer)
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

// emit records one substrate-layer trace event and bumps its counter
// ("" = event only). Callers check the tracer for nil first, so an event
// kind built by concatenation costs nothing with tracing off.
func emit(tr *trace.Tracer, ev trace.Event, counter string, inc int64) {
	ev.Layer = trace.LayerSubstrate
	tr.Emit(ev)
	if counter != "" {
		tr.Metrics().Counter(trace.LayerSubstrate, counter).Inc(inc)
	}
}

// Admit runs the arrival half of request service for a decoded request
// of n wire bytes: causal arrival (before the filter — redelivered copies
// carry the same span, so Arrive stays idempotent), counters, and the
// (origin, seq) duplicate filter. It returns nil for a fresh request,
// which the binding hands to Serve once it has disposed of the receive
// buffer, or the recorded entry for a duplicate, to hand to AnswerDup.
func (c *Core) Admit(p *sim.Proc, m *msg.Message, aux []byte, n int) *DupEntry {
	if cz := p.Sim().Causal(); cz != nil {
		m.Ctx = trace.DecodeCtx(aux)
		cz.Arrive(m.Ctx, p.ID(), int64(p.Now()))
	}
	c.stats.RequestsRecvd++
	c.stats.BytesRecvd += int64(n)
	key := DupKey{Origin: m.ReplyTo, Seq: m.Seq}
	if e, seen := c.dup.Lookup(key); seen {
		c.stats.DupRequests++
		if tr := p.Sim().Tracer(); tr != nil {
			emit(tr, trace.Event{T: int64(p.Now()), Kind: "dup-request",
				Proc: p.ID(), Peer: int(m.From), Bytes: n}, "dup.requests", 1)
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
		c.wire.Transmit(p, e.To, LaneReply, m.Kind, e.Reply, e.ReplyAux)
	} else if e.ForwardedTo >= 0 {
		m.From = int32(c.rank)
		c.stats.ForwardsSent++
		c.wire.Transmit(p, e.ForwardedTo, LaneRelay, m.Kind, m.Encode(), e.FwdAux)
	}
}

// Serve runs the handler on a fresh request and records its serve span.
func (c *Core) Serve(p *sim.Proc, m *msg.Message, n int) {
	start := p.Now()
	c.handler(p, m)
	if tr := p.Sim().Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(start), Dur: int64(p.Now() - start),
			Kind: "serve:" + m.Kind.String(), Proc: p.ID(), Peer: int(m.From), Bytes: n}, "", 0)
	}
}

// edge records the send half of a message in the causal DAG and returns
// the encoded context the frame carries (nil with causal tracing off).
func (c *Core) edge(p *sim.Proc, prefix string, kind msg.Kind, dst int, parent uint64, n int) []byte {
	cz := p.Sim().Causal()
	if cz == nil {
		return nil
	}
	return trace.EncodeCtx(cz.Edge(prefix+kind.String(), c.rank, dst, p.ID(), parent, n, int64(p.Now())))
}

// Reply implements Transport: the reply goes to the request's originator
// and its encoded form is cached in the duplicate filter, so a
// redelivered request is answered without re-executing it. Encode copies:
// nothing rep referenced is read after this returns.
func (c *Core) Reply(p *sim.Proc, req *msg.Message, rep *msg.Message) {
	origin := int(req.ReplyTo)
	rep.Seq = req.Seq
	rep.From = int32(c.rank)
	rep.ReplyTo = int32(c.rank)
	body := rep.Encode()
	// A reply is caused by the request it answers, unless the handler set
	// an explicit enabling cause (barrier releases: the true cause is the
	// last arrival, not this rank's own early arrival).
	parent := req.Ctx.Span
	if !rep.Ctx.Zero() {
		parent = rep.Ctx.Span
	}
	aux := c.edge(p, "rep:", rep.Kind, origin, parent, len(body))
	key := DupKey{Origin: req.ReplyTo, Seq: req.Seq}
	e, ok := c.dup.Lookup(key)
	if !ok {
		e = c.dup.Insert(key)
	}
	e.Done, e.Reply, e.ReplyAux, e.To = true, body, aux, origin
	c.stats.RepliesSent++
	c.wire.Transmit(p, origin, LaneReply, rep.Kind, body, aux)
}

// Forward implements Transport: relay a request, preserving the
// originator. The relay target is recorded so a duplicate of the request
// re-triggers the forward if the first relay chain was lost.
func (c *Core) Forward(p *sim.Proc, dst int, req *msg.Message) {
	req.From = int32(c.rank)
	body := req.Encode()
	aux := c.edge(p, "fwd:", req.Kind, dst, req.Ctx.Span, len(body))
	if e, ok := c.dup.Lookup(DupKey{Origin: req.ReplyTo, Seq: req.Seq}); ok {
		e.ForwardedTo, e.FwdAux = dst, aux
	}
	c.stats.ForwardsSent++
	c.wire.Transmit(p, dst, LaneRelay, req.Kind, body, aux)
}

// Send implements Transport: a one-shot request, no reply expected.
func (c *Core) Send(p *sim.Proc, dst int, req *msg.Message) {
	body, aux := c.stamp(p, dst, req)
	c.stats.RequestsSent++
	c.wire.Transmit(p, dst, LaneRequest, req.Kind, body, aux)
}

// stamp assigns an outbound request its identity, encodes it, and records
// its causal send edge. The parent is the request's explicit context when
// the caller set one, otherwise the rank's mainline context.
func (c *Core) stamp(p *sim.Proc, dst int, req *msg.Message) (body, aux []byte) {
	req.Seq = c.NextSeq()
	req.From = int32(c.rank)
	req.ReplyTo = int32(c.rank)
	body = req.Encode()
	if cz := p.Sim().Causal(); cz != nil {
		parent := req.Ctx.Span
		if req.Ctx.Zero() {
			parent = cz.Cur(c.rank).Span
		}
		aux = c.edge(p, "req:", req.Kind, dst, parent, len(body))
	}
	return body, aux
}
