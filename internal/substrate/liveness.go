package substrate

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LivenessConfig enables the substrate's peer-liveness layer: lightweight
// heartbeats multiplexed over the existing asynchronous path plus a
// phi-style miss threshold. Every frame from a peer (data or heartbeat)
// refreshes that peer's last-heard clock; a peer whose silence exceeds
// Threshold heartbeat intervals is declared dead. Detection is local and
// independent per process — there is no group membership protocol, which
// matches the crash model: survivors only need to stop waiting.
//
// Disabled (the zero value), the transports behave bit-identically to the
// pre-liveness code: no heartbeats, no deadline polling, and retry
// exhaustion keeps its original semantics.
type LivenessConfig struct {
	Enabled bool
	// Interval between heartbeat probes to each peer. Zero selects
	// DefaultLivenessInterval.
	Interval sim.Time
	// Threshold is the phi-style miss bound: a peer is declared dead once
	// elapsed-since-last-heard exceeds Threshold × Interval. Zero selects
	// DefaultLivenessThreshold.
	Threshold int
}

// Default liveness parameters: with a 500 µs probe interval and an
// 8-interval miss bound, detection latency is ~4 ms of virtual time —
// comfortably above the fabric's fault-injected delay spikes (≤ 2 ms) and
// the transports' retry backoff steps, so a live-but-slow peer is never
// declared dead by the chaos scenarios.
const (
	DefaultLivenessInterval  = 500 * sim.Microsecond
	DefaultLivenessThreshold = 8
)

// Deadline returns the silence bound of a config with its defaults filled
// in (Core.Policy): a peer unheard for longer than this is dead.
func (lc LivenessConfig) Deadline() sim.Time { return lc.Interval * sim.Time(lc.Threshold) }

// Liveness is the peer-liveness state of one process, owned by the Core:
// per-peer last-heard clocks, the silence rule, declared-dead flags, and
// the typed give-up. Every frame from a peer (data or probe) refreshes
// its clock via Heard; a peer silent past the policy's Deadline() is declared dead
// on the next tick: pending and future sends toward it are abandoned
// instead of retransmitted into the void, blocked calls resolve nil, and
// the OnPeerDead callback hands the event to the DSM's stall watchdog.
//
// Detection is by silence, not delivery failure: a dead process's tick
// stops (it checks the owning process), so every survivor notices within
// Deadline() on its own. The binding supplies only Wire.Probe — probes
// are fire-and-forget, never retransmitted — and Wire.PeerGone.
//
// The dead flags exist even with liveness disabled: retry exhaustion also
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

// Enabled reports whether probing and silence detection are configured.
func (lv *Liveness) Enabled() bool { return lv.c.pol.Liveness.Enabled }

// Start arms the probe clock (no-op with liveness disabled); a binding's
// Start calls it once its probe resources exist.
func (lv *Liveness) Start() {
	if !lv.c.pol.Liveness.Enabled {
		return
	}
	s := lv.c.proc.Sim()
	for i := range lv.lastHeard {
		lv.lastHeard[i] = s.Now()
	}
	s.After(lv.c.pol.Liveness.Interval, lv.tick)
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
	now, deadline := s.Now(), lv.c.pol.Liveness.Deadline()
	for peer := range lv.dead {
		if peer == c.rank || lv.dead[peer] {
			continue
		}
		if now-lv.lastHeard[peer] > deadline {
			lv.DeclareDead(peer, "heartbeat-miss", 0)
		} else if c.wire.Probe(peer) {
			c.stats.HeartbeatsSent++
		}
	}
	s.After(lv.c.pol.Liveness.Interval, lv.tick)
}

// Heard refreshes a peer's last-heard clock (any frame counts).
func (lv *Liveness) Heard(peer int) {
	if peer >= 0 && peer < len(lv.lastHeard) {
		lv.lastHeard[peer] = lv.c.proc.Sim().Now()
	}
}

// HeardWithin reports whether any frame from peer arrived in the last d:
// retry exhaustion against a peer that is still audibly alive is
// congestion, not death.
func (lv *Liveness) HeardWithin(peer int, d sim.Time) bool {
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
