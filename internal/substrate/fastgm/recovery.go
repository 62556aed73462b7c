package fastgm

import (
	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// GM-level recovery (the tentpole of the paper's robustness story). On a
// perfect fabric the preposting invariant guarantees every send is
// accepted and none of this code runs. On a lossy one, a lost or parked
// frame makes GM's resend timer fire, which disables the sending port
// and fails the send callback. The transport then:
//
//  1. schedules gm_resume_sending after GM's probe delay (once per port,
//     however many sends failed — the disable cascades to every in-flight
//     send with SendPortDisabled);
//  2. retransmits the frame from kernel/event context with exponential
//     backoff, bounded by MaxSendRetries;
//  3. relies on the receiver-side duplicate filter: a frame can be
//     delivered twice when the original is accepted from the park queue
//     after the sender's timer already fired, so every request carries
//     its cluster-wide (origin, seq) identity and receivers answer
//     duplicates idempotently (cached reply / re-forward).
//
// The send buffer stays checked out across retries and returns to the
// pool only on SendOK, so retransmission needs no re-copy.

// pendingSend tracks one framed GM send until it completes. The transport
// reuses it, callbacks and all, for a later frame once nothing can call it
// any more: its last GM send reported and no retransmission is armed.
type pendingSend struct {
	t        *Transport
	port     *gm.Port
	dst      int
	dstPort  int
	buf      *gm.Buffer
	n        int
	span     uint64 // causal trace span, resent with every retransmit
	attempts int

	done       gm.SendCallback // ps.completed, bound once
	retransmit func()          // ps.resend, bound once
}

// pendingSend takes a free send record for one frame, or makes one.
func (t *Transport) pendingSend(port *gm.Port, dst, dstPort int, buf *gm.Buffer, n int, span uint64) *pendingSend {
	var ps *pendingSend
	if k := len(t.freeSends); k > 0 {
		ps, t.freeSends = t.freeSends[k-1], t.freeSends[:k-1]
	} else {
		ps = &pendingSend{t: t}
		ps.done, ps.retransmit = ps.completed, ps.resend
	}
	ps.port, ps.dst, ps.dstPort, ps.buf, ps.n, ps.span = port, dst, dstPort, buf, n, span
	return ps
}

// completed is the send callback: recycle on success, recover on failure.
func (ps *pendingSend) completed(st gm.SendStatus) {
	if st == gm.SendOK {
		ps.t.recycleSend(ps)
		return
	}
	ps.t.onSendFailure(ps, st)
}

// onSendFailure runs in scheduler context when GM reports a failed send.
func (t *Transport) onSendFailure(ps *pendingSend, st gm.SendStatus) {
	t.Stats().GMSendFailures++
	ps.attempts++
	if ps.attempts > t.cfg.MaxSendRetries {
		// The fault is not transient. The original code fail-stopped here;
		// instead the send is abandoned with a typed failure so the stall
		// surfaces in the run result rather than leaving the frame pending
		// (and the awaiting Call blocked) forever.
		t.abandonSend(ps, "retry-exhausted")
		return
	}
	if tr := t.Proc().Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(t.Proc().Sim().Now()), Layer: trace.LayerSubstrate,
			Kind: "gm-send-failed", Proc: -1, Peer: ps.dst, Bytes: ps.n})
	}
	t.EnsureResume(ps.port)
	t.scheduleRetransmit(ps)
}

// retryBackoff is the delay before each retransmission.
var retryBackoff = substrate.Backoff{Initial: RetryBackoff, Max: RetryBackoffMax}

// scheduleRetransmit re-sends ps's frame after the backoff.
func (t *Transport) scheduleRetransmit(ps *pendingSend) {
	t.Proc().Sim().After(retryBackoff.Delay(ps.attempts), ps.retransmit)
}

// resend is a retransmission coming due, deferred further (same attempt)
// while the port is still disabled or out of tokens.
func (ps *pendingSend) resend() {
	t := ps.t
	if t.Live.Dead(ps.dst) {
		// The peer was declared dead while this frame sat in backoff;
		// retrying would only re-disable our port.
		t.abandonSend(ps, "peer-dead")
		return
	}
	if !ps.port.Enabled() {
		t.EnsureResume(ps.port)
		t.scheduleRetransmit(ps)
		return
	}
	err := ps.port.SendFromKernel(myrinet.NodeID(ps.dst), ps.dstPort, ps.buf, ps.n, ps.span, ps.done)
	if err != nil {
		t.scheduleRetransmit(ps)
		return
	}
	t.Stats().GMRetransmits++
	if tr := t.Proc().Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(t.Proc().Sim().Now()), Layer: trace.LayerSubstrate,
			Kind: "gm-retransmit", Proc: -1, Peer: ps.dst, Bytes: ps.n})
	}
}

// recycleSend returns a finished frame's buffer to the pool, wakes
// anything waiting on pool space or tokens, and frees the record. Nothing
// reads ps afterwards: it may carry the next frame at once.
func (t *Transport) recycleSend(ps *pendingSend) {
	t.sendPool.Put(ps.buf)
	t.tokenCond.Broadcast()
	*ps = pendingSend{t: t, done: ps.done, retransmit: ps.retransmit}
	t.freeSends = append(t.freeSends, ps)
}

// abandonSend gives up on a frame permanently: the buffer is recycled,
// the give-up is counted and recorded as a typed failure, and the
// destination is declared dead (idempotently) so everything else queued
// toward it gives up too.
func (t *Transport) abandonSend(ps *pendingSend, kind string) {
	dst, n, attempts := ps.dst, ps.n, ps.attempts
	t.Stats().SendsAbandoned++
	t.recycleSend(ps)
	s := t.Proc().Sim()
	if tr := s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(s.Now()), Layer: trace.LayerSubstrate,
			Kind: "send-abandoned:" + kind, Proc: -1, Peer: dst, Bytes: n})
	}
	t.Live.DeclareDead(dst, kind, attempts)
}

// PeerGone implements substrate.Wire: drop every staged rendezvous send
// addressed to the dead peer (its CTS will never come), then wake a
// collector blocked on the synchronous port so it observes the dead flag.
func (t *Transport) PeerGone(peer int) {
	staged := t.rv.staged
	for _, id := range substrate.KeysWhere(staged, func(st *stagedSend) bool { return st.dst == peer }) {
		delete(staged, id)
		t.Stats().SendsAbandoned++
	}
	if t.syncPort != nil {
		t.syncPort.Kick()
	}
}

// EnsureResume schedules exactly one pending gm_resume_sending for a
// disabled port; the probe delay runs on the event clock (no process is
// blocked on it — senders park in AwaitResume instead). Exported, with
// AwaitResume, for substrates layered on this transport and their ports.
func (t *Transport) EnsureResume(port *gm.Port) {
	if port.Enabled() || t.resuming[port] {
		return
	}
	t.resuming[port] = true
	s := t.Proc().Sim()
	s.After(t.node.System().Params().ResumeCost, func() {
		t.resuming[port] = false
		port.ForceResume()
		t.Stats().PortResumes++
		if tr := s.Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(s.Now()), Layer: trace.LayerSubstrate,
				Kind: "transport-resume", Proc: -1, Peer: t.Rank()})
		}
		t.portCond.Broadcast()
	})
}

// AwaitResume parks a sender whose port an earlier failure disabled until
// the (now certainly pending) resume fires, rather than spinning.
func (t *Transport) AwaitResume(p *sim.Proc, port *gm.Port) {
	t.EnsureResume(port)
	p.WaitOn(t.portCond)
}

// rejectFrame counts and discards a truncated/corrupt/unknown async
// frame, returning its buffer to the prepost ring so the class cannot
// starve (prepost replenishment on drop).
func (t *Transport) rejectFrame(p *sim.Proc, rv *gm.Recv, why string) {
	t.Stats().CorruptFrames++
	if tr := p.Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.Now()), Layer: trace.LayerSubstrate,
			Kind: "frame-reject:" + why, Proc: p.ID(), Peer: int(rv.From), Bytes: len(rv.Data)})
	}
	t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
}
