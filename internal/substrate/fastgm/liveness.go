package fastgm

import (
	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/substrate"
)

// The wire half of the liveness layer (the clocks, the silence rule and
// the give-up live in substrate.Liveness). Heartbeat frames are
// multiplexed over the existing asynchronous port — one extra frame tag,
// no new GM resources beyond a handful of registered small send buffers —
// and are serviced in NIC context (the paper's firmware-mod spirit):
// arrival refreshes the peer's last-heard clock even while the host
// computes with asynchronous delivery masked — a multi-millisecond diff
// flush must not make live peers look silent.

// startLiveness registers the heartbeat send buffers and arms the probe
// clock; called from Start in process context so registration is charged
// to the owning process.
func (t *Transport) startLiveness() {
	if !t.Live.Enabled() {
		return
	}
	class := t.node.System().Params().ClassFor(1)
	bufs := t.node.Register(t.Proc(), t.Size()*gm.ClassCapacity(class)).Carve(class, t.Size())
	for i := range bufs {
		t.hbBufs = append(t.hbBufs, &bufs[i])
	}
	// The async port's classifier (asyncNICFilter) also consumes the
	// heartbeats; the sync port only needs the clock refresh.
	t.syncPort.SetFilter(func(rv *gm.Recv) bool {
		t.Live.Heard(int(rv.From))
		return false
	})
	t.Live.Start()
}

// Probe implements substrate.Wire: ship one heartbeat frame from
// kernel/event context. Probes are best-effort: out of buffers or tokens
// means skip this round, and a failed send only resumes the port (never a
// retransmission).
func (t *Transport) Probe(peer int) bool {
	if len(t.hbBufs) == 0 {
		return false
	}
	buf := t.hbBufs[len(t.hbBufs)-1]
	t.hbBufs = t.hbBufs[:len(t.hbBufs)-1]
	buf.Bytes()[0] = frameHB
	// Shipped from kernel context; the buffer returns to the pool when the
	// send completes or cannot start.
	err := t.asyncPort.SendFromKernel(myrinet.NodeID(peer), AsyncPort, buf, 1,
		func(st gm.SendStatus) {
			t.hbBufs = append(t.hbBufs, buf)
			if st != gm.SendOK && !t.Halted() {
				t.EnsureResume(t.asyncPort)
			}
		})
	if err != nil {
		t.hbBufs = append(t.hbBufs, buf)
		if err == gm.ErrPortDisabled {
			t.EnsureResume(t.asyncPort)
		}
	}
	return err == nil
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

// Halt implements substrate.Transport: crash teardown from scheduler
// context. Timers and retransmissions go quiescent (they check Halted)
// and both GM ports close so a replacement process can reopen them;
// in-flight traffic toward the closed ports is dropped by GM and the
// senders' own halted checks absorb the resulting completions.
func (t *Transport) Halt() {
	if !t.Quiesce() {
		return
	}
	t.rv.shutdown = true
	t.node.ClosePort(AsyncPort)
	t.node.ClosePort(SyncPort)
}
