package tmk

import (
	"fmt"
	"strings"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// Crash-failure model. A seeded injector kills one rank at a chosen
// protocol point; the substrate's liveness layer detects the resulting
// silence; and the stall watchdog below turns the detection into either a
// coordinated abort with a post-mortem naming the blocking protocol
// entity on every survivor, or a restart: the run started again, from the
// application's first line, on a replacement generation of processes.

// CrashConfig configures the injector and the recovery policy. There is
// no master switch: a trigger arms the injector and, with it, the
// substrate's failure detector — without detection the survivors would
// block forever on the dead rank, and without a trigger there is nothing
// to detect — and Restart arms the restart. The zero value — and a Rank
// with no trigger — changes nothing: runs are bit-identical to a config
// without a crash model.
type CrashConfig struct {
	// Rank is the process the injector kills once a trigger is armed.
	Rank int
	// AtTime kills Rank at this virtual time (0 disables this trigger).
	AtTime sim.Time
	// AtBarrier kills Rank on entry to its n-th Barrier call, counting
	// from 1 (0 disables).
	AtBarrier int
	// AtLock kills Rank on entry to its n-th LockAcquire call, counting
	// from 1 (0 disables).
	AtLock int
	// Restart runs the application again from its first line on a fresh
	// generation of processes after the first detected death; without it
	// a detected death ends in a coordinated abort.
	Restart bool
}

func (cc CrashConfig) hasTrigger() bool {
	return cc.AtTime > 0 || cc.AtBarrier > 0 || cc.AtLock > 0
}

// CrashReport is the watchdog's post-mortem: who died, who noticed, and
// what protocol entity each survivor was blocked on at detection time.
type CrashReport struct {
	DeadRank   int
	DetectedBy int      // rank whose transport first declared the peer dead
	DetectedAt sim.Time // virtual detection time
	Cause      string   // the transport's typed failure
	Entities   []string // per-rank blocking entity at detection
	Action     string   // "abort" or "restart"
	// Generations counts process generations spawned (1 = no restart).
	Generations int
}

func (r *CrashReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rank %d crashed; detected by rank %d at %v (%s); action=%s",
		r.DeadRank, r.DetectedBy, r.DetectedAt, r.Cause, r.Action)
	for rank, e := range r.Entities {
		if rank == r.DeadRank || e == "" {
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d: %s", rank, e)
	}
	return b.String()
}

// CrashAbortError is returned by Run alongside the partial Result when a
// rank declared dead — crashed, or unreachable past a transport's retry
// budget, crash model or none — could not be recovered by restart: the
// post-mortem names it and what every survivor was blocked on.
type CrashAbortError struct {
	Report *CrashReport
}

func (e *CrashAbortError) Error() string {
	return "tmk: run aborted after crash: " + e.Report.String()
}

// crashState is the cluster-side watchdog state.
type crashState struct {
	handled bool
	report  *CrashReport
	gen     int // current process generation
}

// handleCrash is the stall watchdog: invoked (once; later detections are
// ignored) by any rank's transport when it declares a peer dead. It runs
// in whatever context the detection happened — a liveness tick in
// scheduler context or a giving-up Call in process context — and only
// marks state, kills, and schedules: the teardown completes in afterCrash
// once every killed process has unwound.
func (c *Cluster) handleCrash(detector, peer int, err error) {
	if c.crash.handled {
		return
	}
	c.crash.handled = true
	now := c.sim.Now()
	rep := &CrashReport{
		DeadRank:    peer,
		DetectedBy:  detector,
		DetectedAt:  now,
		Cause:       err.Error(),
		Entities:    make([]string, c.n),
		Generations: c.crash.gen + 1,
	}
	for rank, tp := range c.procs {
		switch {
		case tp == nil:
			rep.Entities[rank] = "(not started)"
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
	c.crash.report = rep
	c.procs[detector].observe(event{kind: trace.KindCrashDetected, peer: peer, a: c.crash.gen})

	// Kill the whole generation (survivors' partial state is not
	// recoverable piecemeal) and halt its transports so their timers and
	// retransmissions go quiescent and ports/sockets free up for a
	// replacement generation.
	for _, tp := range c.procs {
		if tp != nil {
			tp.sp.Kill()
		}
	}
	for _, tp := range c.procs {
		if tp != nil {
			tp.tr.Halt()
		}
	}
	// Same-time FIFO ordering guarantees every kill-wake dispatch (and so
	// every goroutine unwind) runs before the recovery decision.
	c.sim.At(now, c.afterCrash)
}

// afterCrash runs in scheduler context once the crashed generation has
// fully unwound. Without Restart the abort post-mortem is the run's
// outcome. With it the run starts again: what lives on the Cluster rather
// than on a Proc — the region and page allocators — goes back to where
// generation 0 found it, and the launch path that started generation 0
// starts generation 1.
func (c *Cluster) afterCrash() {
	rep := c.crash.report
	if !c.cfg.Crash.Restart {
		rep.Action = "abort"
		return
	}
	rep.Action = "restart"
	c.crash.gen++
	rep.Generations = c.crash.gen + 1
	c.procs[rep.DetectedBy].observe(event{kind: trace.KindRestart, peer: -1, a: c.crash.gen})
	c.nextRegionID, c.nextPage = 0, 0
	c.spawnGeneration(c.crash.gen)
}

// maybeCrashAt implements the counting triggers (AtBarrier/AtLock): the
// injected rank of generation 0 dies mid-protocol, without any cleanup,
// on its at-th entry to the instrumented operation.
func (tp *Proc) maybeCrashAt(counter *int, at int) {
	if at <= 0 || tp.gen != 0 || tp.rank != tp.cluster.cfg.Crash.Rank {
		return
	}
	*counter++
	if *counter == at {
		tp.observe(event{kind: trace.KindCrashInject, peer: -1, a: at})
		tp.sp.Exit()
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
// dead peer — the watchdog has already been notified, this process's
// generation is condemned, and the caller unwinds like a killed process.
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
