package substrate

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Liveness is the peer-liveness state of one process, owned by the Core:
// per-peer last-heard clocks, declared-dead flags, and the typed give-up.
// A peer is declared dead when a send toward it exhausts its retry budget
// (any layer). From then on pending and future sends toward it are
// abandoned instead of retransmitted into the void, blocked calls resolve
// nil, and the OnPeerDead callback hands the event to the DSM's watchdog.
//
// Every frame from a peer refreshes its clock (Heard): a spent budget
// against a peer heard recently is congestion, not death, and an Exchange
// with a Grace extends it (HeardWithin). Detection is local to each
// process; there is no group membership protocol and no probing.
type Liveness struct {
	c         *Core
	lastHeard []sim.Time
	dead      []bool
	failure   *PeerUnreachableError
	onDead    func(peer int, err error)
}

func (lv *Liveness) init(c *Core) {
	lv.c = c
	lv.lastHeard = make([]sim.Time, c.size)
	lv.dead = make([]bool, c.size)
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

// Dead reports whether peer has been declared dead.
func (lv *Liveness) Dead(peer int) bool {
	return peer >= 0 && peer < len(lv.dead) && lv.dead[peer]
}

// DeclareDead marks a peer dead (idempotently) after an exhausted retry
// budget: the typed failure is recorded, the binding's per-peer state
// released (which wakes a blocked collector), and the watchdog callback
// runs. Scheduler or process context.
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
		emit(tr, trace.Event{T: int64(s.Now()), Kind: "peer-dead:" + kind, Proc: -1, Peer: peer})
	}
	c.peerGone(err)
	if lv.onDead != nil {
		lv.onDead(peer, err)
	}
}

// PeerUnreachableError is the typed give-up: a transport stopped waiting
// on a peer because a send exhausted its retry budget. It surfaces
// through tmk.Result into the tmkrun exit code — the fix for the
// silent-stall where an exhausted retransmit schedule previously left the
// send pending forever.
type PeerUnreachableError struct {
	Rank     int    // the process reporting the failure
	Peer     int    // the peer declared unreachable
	Attempts int    // send attempts made
	Kind     string // what gave up: "retry-exhausted", "peer-dead", ...
}

func (e *PeerUnreachableError) Error() string {
	return fmt.Sprintf("substrate: rank %d: peer %d unreachable (%s after %d attempts)",
		e.Rank, e.Peer, e.Kind, e.Attempts)
}
