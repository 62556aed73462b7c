package gm

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SendStatus is the outcome reported to a send callback.
type SendStatus int

// Send outcomes.
const (
	SendOK SendStatus = iota
	// SendTimedOut: the receiver never provided a matching receive buffer
	// within the resend timeout. The sending port is disabled.
	SendTimedOut
	// SendPortDisabled: the send was aborted because the port was
	// disabled by an earlier failure before this send completed.
	SendPortDisabled
)

func (st SendStatus) String() string {
	switch st {
	case SendOK:
		return "ok"
	case SendTimedOut:
		return "timed out"
	case SendPortDisabled:
		return "port disabled"
	default:
		return fmt.Sprintf("SendStatus(%d)", int(st))
	}
}

// SendCallback fires when GM finishes with a send (ack received or
// failure determined). It runs at the callback's virtual time in whatever
// context the simulator is in; it must not block.
type SendCallback func(status SendStatus)

// Errors returned by Send.
var (
	ErrNoSendTokens = errors.New("gm: no send tokens available")
	ErrPortDisabled = errors.New("gm: port disabled; resume required")
	ErrNotPinned    = errors.New("gm: send buffer not in registered memory")
)

// Recv is one received message as surfaced by a poll. It is the receive
// buffer's own record, valid until that buffer is posted again: a re-post
// may accept a parked message into the same buffer at once, so whoever
// re-posts reads what it needs of the Recv first.
type Recv struct {
	From     myrinet.NodeID
	FromPort int
	Class    int
	Data     []byte  // length = message length; aliases Buffer storage
	Buffer   *Buffer // the preposted buffer the message landed in
	Span     uint64  // uncharged envelope metadata (causal trace span), or 0
}

// PortStats counts port-level activity.
type PortStats struct {
	Sent          int64
	SendBytes     int64
	Received      int64
	RecvBytes     int64
	Parked        int64 // messages that arrived with no matching buffer
	Timeouts      int64 // parked messages that expired (sender notified)
	Interrupts    int64
	TokenStalls   int64 // Send calls rejected for lack of tokens
	BuffersPosted int64
}

// Port is one GM communication endpoint on a node.
type Port struct {
	node    *Node
	id      int
	tokens  int
	enabled bool

	rxQ    []*Recv
	rxCond *sim.Cond
	kicked bool // a blocking receive must return empty-handed (Kick)

	posted map[int][]*Buffer     // class → preposted receive buffers
	parked map[int][]*partialMsg // class → arrivals awaiting a buffer

	// inflight are the unresolved sends, in send order (a slice, not a
	// map, so the disable-time abort cascade is deterministic); free are
	// the records no one can reach any more, reused by the next sends.
	inflight []*sendRecord
	free     []*sendRecord

	intrProc    *sim.Proc
	intrEnabled bool

	sink func(*Recv)

	stats PortStats
}

// tracer returns the simulation's structured tracer, or nil.
func (p *Port) tracer() *trace.Tracer { return p.node.sys.s.Tracer() }

// SetSink installs a scheduler-context delivery function that intercepts
// every accepted message instead of queuing it for Poll/WaitRecv. This
// models a kernel-owned port (the Sockets-GM path): the "kernel" consumes
// arrivals immediately and recycles the receive buffers itself.
func (p *Port) SetSink(fn func(*Recv)) { p.sink = fn }

// Enabled reports whether the port can send.
func (p *Port) Enabled() bool { return p.enabled }

// Tokens returns the number of available send tokens.
func (p *Port) Tokens() int { return p.tokens }

// Stats returns a copy of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// ForceResume re-enables a port disabled by a send timeout
// (gm_resume_sending). No process is charged: the callers, the kernel's
// port and fastgm's recovery, wait out the ResumeCost network probe on
// the event clock themselves.
func (p *Port) ForceResume() {
	if p.enabled {
		return
	}
	p.enabled = true
	p.traceResume()
}

func (p *Port) traceResume() {
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "port-resume", Proc: -1, Peer: int(p.node.id)})
	}
}

// dropInflight removes a resolved send record from the in-flight list.
func (p *Port) dropInflight(rec *sendRecord) {
	for i, r := range p.inflight {
		if r == rec {
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			return
		}
	}
}

// ProvideReceiveBuffer preposts b for messages of b's size class. If a
// message of that class is already parked waiting, it is accepted
// immediately (and its park expiry released).
func (p *Port) ProvideReceiveBuffer(b *Buffer) {
	if !b.mem.registered {
		panic("gm: receive buffer not in registered memory")
	}
	p.stats.BuffersPosted++
	if waiting := p.parked[b.class]; len(waiting) > 0 {
		pm := waiting[0]
		p.parked[b.class] = waiting[:copy(waiting, waiting[1:])]
		p.node.sys.s.Release(pm.timeout)
		pm.timeout = nil
		p.accept(pm, b)
		return
	}
	p.posted[b.class] = append(p.posted[b.class], b)
}

// ProvideReceiveBuffers posts every buffer of bufs — a carved ring, all of
// one class — in order, as ProvideReceiveBuffer would one at a time; the
// class's queue grows once for all of them.
func (p *Port) ProvideReceiveBuffers(bufs []Buffer) {
	if len(bufs) == 0 {
		return
	}
	c := bufs[0].class
	if q := p.posted[c]; cap(q)-len(q) < len(bufs) {
		p.posted[c] = append(make([]*Buffer, 0, len(q)+len(bufs)), q...)
	}
	for i := range bufs {
		p.ProvideReceiveBuffer(&bufs[i])
	}
}

// Send transmits n bytes from registered buffer b to (dst, dstPort). The
// calling process is charged the host-side send overhead; cb fires when
// the message is accepted at the receiver (SendOK) or the transfer fails.
// The data is copied out of b before Send returns, so b may be reused as
// soon as cb fires (GM's contract).
func (p *Port) Send(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, cb SendCallback) error {
	return p.send(proc, dst, dstPort, b, n, 0, cb)
}

// SendSpan is Send carrying a causal trace span: the span rides the
// message outside the billed payload (observation only — it adds no bytes
// to any fragment and no virtual time to any charge) and surfaces as
// Recv.Span at the receiver. Retransmissions of the same logical message
// must resend the same span.
func (p *Port) SendSpan(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, span uint64, cb SendCallback) error {
	return p.send(proc, dst, dstPort, b, n, span, cb)
}

// SendFromKernel is SendSpan issued from kernel context: no process is
// charged the host send overhead (the syscall path already accounted for
// it, or the send happens from a completion handler on the event clock).
func (p *Port) SendFromKernel(dst myrinet.NodeID, dstPort int, b *Buffer, n int, span uint64, cb SendCallback) error {
	return p.send(nil, dst, dstPort, b, n, span, cb)
}

func (p *Port) send(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, span uint64, cb SendCallback) error {
	params := p.node.sys.params
	if !p.enabled {
		return ErrPortDisabled
	}
	if b == nil || !b.mem.registered {
		return ErrNotPinned
	}
	if n < 0 || n > b.n {
		return fmt.Errorf("gm: send length %d outside buffer capacity %d", n, b.n)
	}
	if p.tokens <= 0 {
		p.stats.TokenStalls++
		if tr := p.tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
				Kind: "token-stall", Proc: procID(proc), Peer: int(dst)})
			tr.Metrics().Counter(trace.LayerGM, "token.stalls").Inc(0)
		}
		return ErrNoSendTokens
	}
	p.tokens--
	if proc != nil {
		proc.Advance(params.SendOverhead)
	}

	class := params.ClassFor(n)
	p.stats.Sent++
	p.stats.SendBytes += int64(n)
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "send", Proc: procID(proc), Peer: int(dst), Bytes: n})
		tr.Metrics().Counter(trace.LayerGM, fmt.Sprintf("send.class%d", class)).Inc(int64(n))
	}

	rec := p.record()
	rec.cb, rec.class, rec.span = cb, class, span
	p.inflight = append(p.inflight, rec)
	p.node.nextMsgID++
	rec.msgID = p.node.nextMsgID

	// Fragments of MTU bytes, the last one short; an empty message is
	// still one (empty) packet. The fabric copies each one out of b.
	frags := max(1, (n+myrinet.MTU-1)/myrinet.MTU)
	rec.wire = frags
	data := b.Bytes()
	for i, off := 0, 0; i < frags; i++ {
		end := min(off+myrinet.MTU, n)
		pkt := myrinet.Packet{
			Src:      p.node.id,
			Dst:      dst,
			DstPort:  dstPort,
			MsgID:    rec.msgID,
			Frag:     i,
			NumFrags: frags,
			MsgLen:   n,
			Payload:  data[off:end],
			Meta:     rec,
		}
		p.node.nic.SendPacket(&pkt)
		off = end
	}
	// The resend timeout is armed at the sender: if the receiver never
	// accepts (closed port or no buffer), this fires.
	s := p.node.sys.s
	rec.timeout = s.Timer(s.Now()+params.ResendTimeout, rec.onTimeout)
	return nil
}

// record takes a free send record, or makes one with its callbacks bound.
func (p *Port) record() *sendRecord {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		r.done = false
		return r
	}
	r := &sendRecord{port: p}
	r.onTimeout, r.onAck = r.timedOut, r.acked
	return r
}

// resolve ends a send: its timeout released, its token returned. The
// caller fires the callback and then offers the record for reuse.
func (r *sendRecord) resolve() SendCallback {
	r.done = true
	r.port.node.sys.s.Release(r.timeout)
	r.timeout = nil
	r.port.dropInflight(r)
	r.port.tokens++
	return r.cb
}

// acked is the receiver's acknowledgement arriving, AckLatency after the
// accept; an accept schedules it only for the send the record still holds.
func (r *sendRecord) acked() {
	r.ackDue = false
	if !r.done {
		if cb := r.resolve(); cb != nil {
			cb(SendOK)
		}
	}
	r.recycle()
}

// timedOut is the resend timeout firing.
func (r *sendRecord) timedOut() { r.fail(SendTimedOut) }

// fail finishes a send unsuccessfully. A resend timeout (SendTimedOut)
// disables the sending port — real GM's drastic reaction — and then
// aborts every other in-flight send on the port with SendPortDisabled
// rather than letting each time out serially.
func (r *sendRecord) fail(st SendStatus) {
	if r.done {
		return
	}
	p := r.port
	cb := r.resolve()
	defer r.recycle()
	if st != SendTimedOut {
		if tr := p.tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
				Kind: "send-aborted", Proc: -1, Peer: int(p.node.id)})
		}
		if cb != nil {
			cb(st)
		}
		return
	}
	p.stats.Timeouts++
	wasEnabled := p.enabled
	p.enabled = false
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "send-timeout", Proc: -1, Peer: int(p.node.id)})
	}
	if cb != nil {
		cb(st)
	}
	if wasEnabled {
		doomed := append([]*sendRecord(nil), p.inflight...)
		for _, d := range doomed {
			d.fail(SendPortDisabled)
		}
	}
}

// arrive is called in scheduler context when a complete message reaches
// this port. It matches a preposted buffer of the exact class or parks.
func (p *Port) arrive(pm *partialMsg) {
	class := pm.class
	if bufs := p.posted[class]; len(bufs) > 0 {
		b := bufs[0]
		p.posted[class] = bufs[:copy(bufs, bufs[1:])]
		p.accept(pm, b)
		return
	}
	p.stats.Parked++
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "parked", Proc: -1, Peer: int(pm.src), Bytes: len(pm.data)})
		tr.Metrics().Counter(trace.LayerGM, "parked").Inc(int64(len(pm.data)))
	}
	// The receiver-side park expires with the sender's timeout, so the
	// parked entry is reclaimed.
	s := p.node.sys.s
	pm.port = p
	pm.timeout = s.Timer(s.Now()+p.node.sys.params.ResendTimeout, pm.expire)
	p.parked[class] = append(p.parked[class], pm)
}

// expired is a park's timeout firing: the message leaves its queue unread.
func (pm *partialMsg) expired() {
	p := pm.port
	q := p.parked[pm.class]
	if i := slices.Index(q, pm); i >= 0 {
		p.parked[pm.class] = slices.Delete(q, i, i+1)
	}
	p.node.sys.s.Release(pm.timeout)
	pm.timeout = nil
	p.node.recycle(pm)
}

// accept copies the message into a buffer, fills the buffer's Recv,
// queues it, and acknowledges the sender — if the sender's record still
// holds this message. A record that moved on (its send timed out or was
// aborted, and it was reused) is not this message's any more.
func (p *Port) accept(pm *partialMsg, b *Buffer) {
	data := b.Bytes()[:len(pm.data)]
	copy(data, pm.data)
	rv := &b.recv
	*rv = Recv{
		From:     pm.src,
		FromPort: pm.srcPort,
		Class:    pm.class,
		Data:     data,
		Buffer:   b,
		Span:     pm.span,
	}
	p.stats.Received++
	p.stats.RecvBytes += int64(len(data))
	if tr := p.tracer(); tr != nil {
		tr.Metrics().Counter(trace.LayerGM, "recv").Inc(int64(len(data)))
	}

	// Ack the sender after the NIC-level ack latency.
	if rec := pm.rec; rec != nil && rec.msgID == pm.msgID && !rec.done {
		rec.ackDue = true
		p.node.sys.s.After(p.node.sys.params.AckLatency, rec.onAck)
	}
	p.node.recycle(pm)

	if p.sink != nil {
		p.sink(rv)
		return
	}
	p.rxQ = append(p.rxQ, rv)
	p.rxCond.Broadcast()
	if p.intrEnabled && p.intrProc != nil {
		p.stats.Interrupts++
		if tr := p.tracer(); tr != nil {
			tr.Metrics().Counter(trace.LayerGM, "nic.interrupts").Inc(0)
		}
		p.intrProc.Interrupt(p)
	}
}

// procID returns the trace process id for proc, -1 for kernel context.
func procID(proc *sim.Proc) int {
	if proc == nil {
		return -1
	}
	return proc.ID()
}

// Poll checks the receive queue once, charging the appropriate poll cost.
// It returns nil when no message is pending.
func (p *Port) Poll(proc *sim.Proc) *Recv {
	params := p.node.sys.params
	if len(p.rxQ) == 0 {
		proc.Advance(params.EmptyPollOverhead)
		return nil
	}
	proc.Advance(params.PollOverhead + params.RecvDispatch)
	if len(p.rxQ) == 0 {
		// The poll charge is a blocking point: an interrupt serviced during
		// it can run a handler that drains this same port (a lock grant
		// flushing diffs reaps the completion queue). Report empty rather
		// than consume a message that is no longer there.
		return nil
	}
	rv := p.rxQ[0]
	p.rxQ = p.rxQ[:copy(p.rxQ, p.rxQ[1:])]
	return rv
}

// TryPeek reports whether a message is pending, with no cost. Used by
// transports to decide whether to enter a blocking wait.
func (p *Port) TryPeek() bool { return len(p.rxQ) > 0 }

// WaitRecv blocks (modelling a gm_receive polling loop: the CPU spins but
// virtual time passes only until the next arrival) until a message is
// available, then returns it with the poll cost charged. It returns nil
// only if Kick interrupted the wait.
func (p *Port) WaitRecv(proc *sim.Proc) *Recv {
	for len(p.rxQ) == 0 {
		if p.kicked {
			p.kicked = false
			return nil
		}
		proc.WaitOn(p.rxCond)
	}
	return p.Poll(proc)
}

// WaitRecvUntil is WaitRecv with a deadline; it returns nil if the
// deadline passes (or Kick fires) first.
func (p *Port) WaitRecvUntil(proc *sim.Proc, deadline sim.Time) *Recv {
	for len(p.rxQ) == 0 {
		if proc.Now() >= deadline || p.kicked {
			p.kicked = false
			return nil
		}
		proc.WaitOnUntil(p.rxCond, deadline)
	}
	return p.Poll(proc)
}

// Kick makes the blocking receive in progress on an empty port — or, if
// none is, the next one — return nil without a message, so its caller can
// re-examine state changed from scheduler context (a peer declared dead).
func (p *Port) Kick() {
	p.kicked = true
	p.rxCond.Broadcast()
}

// EnableInterrupt turns on the paper's NIC-firmware modification for this
// port: every accepted message raises a host interrupt delivered to proc
// (payload: the *Port). The process's interrupt handler typically drains
// the port with Poll.
func (p *Port) EnableInterrupt(proc *sim.Proc) {
	p.intrProc = proc
	p.intrEnabled = true
}

// DisableInterrupt reverts the port to pure polling.
func (p *Port) DisableInterrupt() { p.intrEnabled = false }

// InterruptCost returns the modelled NIC interrupt dispatch cost; the
// interrupt handler charges this on entry.
func (p *Port) InterruptCost() sim.Time { return p.node.sys.params.InterruptOverhead }
