package tmk

import (
	"fmt"
	"strings"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// The abort path. A transport that spends its retry budget on a peer
// declares it dead (substrate.Liveness.DeclareDead), and the stall
// watchdog below turns that declaration into a coordinated abort with a
// post-mortem naming the protocol entity every survivor was blocked on —
// there is no separate "stalled" outcome.

// AbortReport is the watchdog's post-mortem: who was declared dead, who
// declared it, and what protocol entity each survivor was blocked on at
// that moment.
type AbortReport struct {
	DeadRank   int
	DetectedBy int      // rank whose transport first declared the peer dead
	DetectedAt sim.Time // virtual detection time
	Cause      string   // the transport's typed failure
	Entities   []string // per-rank blocking entity at detection
}

func (r *AbortReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rank %d declared dead by rank %d at %v (%s)",
		r.DeadRank, r.DetectedBy, r.DetectedAt, r.Cause)
	for rank, e := range r.Entities {
		if rank == r.DeadRank || e == "" {
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d: %s", rank, e)
	}
	return b.String()
}

// AbortError is returned by Run alongside the partial Result when a
// transport declared a peer dead — unreachable past its retry budget: the
// post-mortem names it and what every survivor was blocked on.
type AbortError struct {
	Report *AbortReport
}

func (e *AbortError) Error() string {
	return "tmk: run aborted: " + e.Report.String()
}

// abort is the stall watchdog: invoked by any rank's transport when it
// declares a peer dead, once (later declarations are ignored). It runs in
// whatever context the declaration happened — a giving-up Call in process
// context or a GM send callback in scheduler context — and only records
// the post-mortem and kills every process: the survivors' partial state
// is not recoverable piecemeal.
func (c *Cluster) abort(detector, peer int, err error) {
	if c.report != nil {
		return
	}
	rep := &AbortReport{
		DeadRank:   peer,
		DetectedBy: detector,
		DetectedAt: c.sim.Now(),
		Cause:      err.Error(),
		Entities:   make([]string, c.n),
	}
	for rank, tp := range c.procs {
		switch {
		case rank == peer:
			rep.Entities[rank] = "(dead)"
		case tp.sp.Done():
			rep.Entities[rank] = "(finished)"
		case tp.blockedOn.format != "":
			rep.Entities[rank] = "blocked on " + tp.blockedOn.String()
		default:
			rep.Entities[rank] = "(running)"
		}
	}
	c.report = rep
	c.procs[detector].observe(event{kind: trace.KindCrashDetected, peer: peer})
	for _, tp := range c.procs {
		tp.sp.Kill()
	}
}

// entity names the protocol entity a process is blocked on, for the
// watchdog's post-mortem: a format over up to three ids, rendered only
// when a report or a panic needs the text — never per remote call. A
// scatter's entity also holds its calls, and its format's last verb
// renders the ranks whose reply is still owed.
type entity struct {
	format string
	ids    [3]int
	owed   []substrate.Pending
}

func blocked(format string, ids ...int) (e entity) {
	e.format = format
	copy(e.ids[:], ids)
	return e
}

// owedBy is blocked for a scatter over pending.
func owedBy(pending []substrate.Pending, format string, ids ...int) entity {
	e := blocked(format, ids...)
	e.owed = pending
	return e
}

func (e entity) String() string {
	args := make([]any, strings.Count(e.format, "%"))
	n := len(args)
	if e.owed != nil {
		n--
		var ranks []int
		for _, pd := range e.owed {
			if pd.Reply() == nil {
				ranks = append(ranks, pd.Dst())
			}
		}
		args[n] = ranks
	}
	for i := range n {
		args[i] = e.ids[i]
	}
	return fmt.Sprintf(e.format, args...)
}

// call wraps the substrate Call with blocking-entity accounting for the
// watchdog's post-mortem. A nil reply means the transport gave up on a
// dead peer — the watchdog has already been notified, the run is
// condemned, and the caller unwinds like a killed process.
func (tp *Proc) call(dst int, on entity, req *msg.Message) *msg.Message {
	tp.blockedOn = on
	rep := tp.tr.Call(tp.sp, dst, req)
	if rep == nil {
		tp.sp.Exit()
	}
	tp.blockedOn = entity{}
	return rep
}

// scatter is call's counterpart for a batch of outstanding requests
// issued with CallBegin: gather every reply, with the same
// blocking-entity accounting and the same unwinding if the transport
// gave up on any peer mid-gather.
func (tp *Proc) scatter(on entity, pending []substrate.Pending) []*msg.Message {
	tp.blockedOn = on
	reps := tp.tr.Collect(tp.sp, pending)
	for _, rep := range reps {
		if rep == nil {
			tp.sp.Exit()
		}
	}
	tp.blockedOn = entity{}
	return reps
}
