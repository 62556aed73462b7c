package substrate

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The detector's schedule: every peer is probed each livenessInterval, and
// one silent for longer than livenessDeadline (8 intervals, ~4 ms of
// virtual time) is dead — far above a healthy round trip and the
// transports' retry backoff steps. Recovering an injected fault can
// silence a live peer for longer, which is why tmk keeps the detector off
// a lossy fabric.
const (
	livenessInterval = 500 * sim.Microsecond
	livenessDeadline = 8 * livenessInterval
)

// Liveness is the peer-liveness state of one process, owned by the Core:
// per-peer last-heard clocks, the silence rule, declared-dead flags, and
// the typed give-up. Armed (Policy.Liveness), lightweight heartbeats ride
// the existing asynchronous path; every frame from a peer (data or probe)
// refreshes its clock via Heard, and a peer silent past livenessDeadline
// is declared dead on the next tick: pending and future sends toward it
// are abandoned instead of retransmitted into the void, blocked calls
// resolve nil, and the OnPeerDead callback hands the event to the DSM's
// stall watchdog.
//
// Detection is by silence, not delivery failure, and local to each
// process — there is no group membership protocol, which matches the
// crash model: survivors only need to stop waiting. A dead process's tick
// stops (it checks the owning process), so every survivor notices within
// the deadline on its own. The binding supplies only Wire.Probe — probes
// are fire-and-forget, never retransmitted — and Wire.PeerGone.
//
// The dead flags exist even with the detector off: retry exhaustion also
// declares peers dead, and every give-up path consults them.
type Liveness struct {
	c         *Core
	lastHeard []sim.Time
	dead      []bool
	stopped   bool
	failure   *PeerUnreachableError
	onDead    func(peer int, err error)
}

func (lv *Liveness) init(c *Core) {
	lv.c = c
	lv.lastHeard = make([]sim.Time, c.size)
	lv.dead = make([]bool, c.size)
}

// Enabled reports whether the run armed probing and silence detection
// (Policy.Liveness).
func (lv *Liveness) Enabled() bool { return lv.c.pol.Liveness }

// Start arms the probe clock (no-op with liveness disabled); a binding's
// Start calls it once its probe resources exist.
func (lv *Liveness) Start() {
	if !lv.Enabled() {
		return
	}
	s := lv.c.proc.Sim()
	for i := range lv.lastHeard {
		lv.lastHeard[i] = s.Now()
	}
	s.After(livenessInterval, lv.tick)
}

// Stop halts the probe clock — which is exactly what peers detect.
func (lv *Liveness) Stop() { lv.stopped = true }

// tick runs on the event clock: declare silent peers dead, probe the
// live ones, re-arm. It stops once the owning process is done or the
// transport was shut down or halted.
func (lv *Liveness) tick() {
	c := lv.c
	if lv.stopped || c.proc.Done() {
		return
	}
	s := c.proc.Sim()
	now := s.Now()
	for peer := range lv.dead {
		if peer == c.rank || lv.dead[peer] {
			continue
		}
		if now-lv.lastHeard[peer] > livenessDeadline {
			lv.DeclareDead(peer, "heartbeat-miss", 0)
		} else if c.wire.Probe(peer) {
			c.stats.HeartbeatsSent++
		}
	}
	s.After(livenessInterval, lv.tick)
}

// Heard refreshes a peer's last-heard clock (any frame counts).
func (lv *Liveness) Heard(peer int) {
	if peer >= 0 && peer < len(lv.lastHeard) {
		lv.lastHeard[peer] = lv.c.proc.Sim().Now()
	}
}

// HeardWithin reports whether any frame from peer arrived in the last d —
// with the detector armed, in the last livenessDeadline if that is
// shorter, since a peer silent that long is dead by the detector's own
// rule: retry exhaustion against a peer that is still audibly alive is
// congestion, not death.
func (lv *Liveness) HeardWithin(peer int, d sim.Time) bool {
	if lv.Enabled() {
		d = min(d, livenessDeadline)
	}
	return peer >= 0 && peer < len(lv.lastHeard) && lv.c.proc.Sim().Now()-lv.lastHeard[peer] <= d
}

// Dead reports whether peer has been declared dead or has departed.
func (lv *Liveness) Dead(peer int) bool {
	return peer >= 0 && peer < len(lv.dead) && lv.dead[peer]
}

// MarkDeparted records an administratively departed peer as dead — ticks
// stop probing its closed endpoint and the silence detector never fires
// on it — without recording a failure or invoking the callback.
func (lv *Liveness) MarkDeparted(peer int) {
	if peer >= 0 && peer < len(lv.dead) && peer != lv.c.rank {
		lv.dead[peer] = true
	}
}

// DeclareDead marks a peer dead (idempotently) by silence or by an
// exhausted retry budget: the typed failure is recorded, credits toward
// the peer are restored and the binding's per-peer state released (which
// wakes a blocked collector), and the watchdog callback runs. Scheduler
// or process context.
func (lv *Liveness) DeclareDead(peer int, kind string, attempts int) {
	c := lv.c
	if peer < 0 || peer >= len(lv.dead) || peer == c.rank || lv.dead[peer] {
		return
	}
	lv.dead[peer] = true
	c.stats.PeersDeclaredDead++
	err := &PeerUnreachableError{Rank: c.rank, Peer: peer, Attempts: attempts, Kind: kind}
	if lv.failure == nil {
		lv.failure = err
	}
	s := c.proc.Sim()
	if tr := s.Tracer(); tr != nil {
		emit(tr, trace.Event{T: int64(s.Now()), Kind: "peer-dead:" + kind, Proc: -1, Peer: peer},
			"peers.dead", 1)
	}
	c.peerGone(err)
	if lv.onDead != nil {
		lv.onDead(peer, err)
	}
}

// PeerUnreachableError is the typed give-up: a transport stopped waiting
// on a peer, either because the liveness layer declared it dead or because
// a send exhausted its retry budget. It surfaces through tmk.Result into
// the tmkrun exit code — the fix for the silent-stall where an exhausted
// retransmit schedule previously left the send pending forever.
type PeerUnreachableError struct {
	Rank     int    // the process reporting the failure
	Peer     int    // the peer declared unreachable
	Attempts int    // send/probe attempts made (0 when detected by silence)
	Kind     string // what gave up: "retry-exhausted", "heartbeat-miss", ...
}

func (e *PeerUnreachableError) Error() string {
	return fmt.Sprintf("substrate: rank %d: peer %d unreachable (%s after %d attempts)",
		e.Rank, e.Peer, e.Kind, e.Attempts)
}
