package sim

import (
	"fmt"

	"repro/internal/trace"
)

type procState uint8

const (
	stateBlocked procState = iota
	stateWaking            // wake scheduled, dispatch pending
	stateRunning
	stateDone
)

// Proc is a simulated process (one TreadMarks process, a kernel helper,
// a benchmark driver, …). All Proc methods must be called from within the
// process's own execution context, i.e. from the function passed to Spawn
// or from an interrupt handler running on behalf of this process.
type Proc struct {
	s      *Simulator
	name   string
	id     int
	clock  Time
	state  procState
	where  string // what the proc is blocked on, for deadlock reports
	killed bool   // Kill or Exit ended it: next resume unwinds instead of returning

	// The handoff is a direct coroutine switch (iter.Pull): dispatch calls
	// next, block calls yield; neither allocates nor queues a goroutine.
	next       func() (struct{}, bool)
	yield      func(struct{}) bool
	wakeFn     func() // p.wake, built once: the callback of every timer
	dispatchEv Event  // the one pending dispatch a proc can have (see wake)

	irqQ       []any
	irqMasked  bool
	inHandler  bool
	irqHandler func(*Proc, any)
	maskedAt   Time // when the current mask window opened (tracing only)
	maskTraced bool // maskedAt is valid

	waitingOn *Cond
	waitWoken bool // set by Cond broadcast/signal, distinguishes real wakes

	computeScale float64 // multiplier applied to Advance, 0 = 1.0
}

// SetComputeScale makes every subsequent Advance cost scale×d instead of
// d. Used to model background CPU theft (e.g. a dedicated polling thread
// competing with the application for cycles). Scale must be ≥ 1.
func (p *Proc) SetComputeScale(scale float64) {
	if scale < 1 {
		panic("sim: compute scale < 1")
	}
	p.computeScale = scale
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn index.
func (p *Proc) ID() int { return p.id }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.s }

// Now returns the process's virtual clock (equal to the simulator clock
// whenever the process is running).
func (p *Proc) Now() Time { return p.clock }

// block yields to the scheduler until some waker dispatches this process.
func (p *Proc) block(where string) {
	p.where = where
	p.state = stateBlocked
	p.yield(struct{}{})
	// dispatch set state/clock already.
	if p.killed {
		// Killed while we were blocked. Unwind the coroutine;
		// Spawn's wrapper recovers the sentinel and marks the proc done.
		// Deferred cleanups (e.g. WaitOnUntil's timer release) still run;
		// skipped non-deferred cleanup is harmless: a dead proc left on a
		// Cond's waiter list is ignored by wake(), and an unreleased timer
		// is simply never reused.
		panic(killed{})
	}
}

// killed is the panic value Kill and Exit unwind a process with.
type killed struct{}

// Kill ends the process: it never executes another instruction. If it is
// blocked (the common case — a killed rank is parked in some wait), it is
// scheduled to unwind at the current virtual time. Safe to call from
// scheduler context or another process's context; killing a finished
// process is a no-op. A process ending itself should call Exit instead.
func (p *Proc) Kill() {
	if p.state == stateDone || p.killed {
		return
	}
	p.killed = true
	p.wake()
}

// Exit terminates the calling process immediately, mid-protocol and
// without any cleanup. Must be called from the process's own context.
func (p *Proc) Exit() {
	p.killed = true
	panic(killed{})
}

// Done reports whether the process has finished (normally or killed).
func (p *Proc) Done() bool { return p.state == stateDone }

// Killed reports whether Kill or Exit ended this process.
func (p *Proc) Killed() bool { return p.killed }

// wake arranges for a blocked process to resume at the current simulator
// time. Safe to call from scheduler context or from another process's
// context. Calling wake on a non-blocked process is a no-op.
func (p *Proc) wake() {
	if p.state != stateBlocked {
		return
	}
	p.state = stateWaking
	// Only a blocked proc gets here and it stays stateWaking until the
	// event fires, so dispatchEv is never pushed while still queued.
	p.dispatchEv.t = p.s.now
	p.s.push(&p.dispatchEv)
}

// Advance charges d of computation to the process's clock. If interrupts
// are delivered while the computation is in progress, the handler runs at
// the interrupt's virtual time and the remaining computation resumes
// afterwards — exactly the cost structure of a CPU taking a device
// interrupt or a signal in the middle of application compute.
//
// When no event is due before the computation ends (and the running
// RunUntil reaches that far), nothing can interrupt it: the clock moves
// in place, with no wake timer and no switch. The events that run, and
// their order, are those of the timed path.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	if p.computeScale > 1 {
		d = Time(float64(d) * p.computeScale)
	}
	tr := p.s.tracer
	t0 := p.clock
	charged := d
	p.serviceInterrupts()
	for d > 0 {
		start := p.clock
		if p.s.idleThrough(start + d) {
			p.clock = start + d
			p.s.now = p.clock
			break
		}
		ev := p.s.Timer(start+d, p.wakeFn)
		p.block("advance")
		p.s.Release(ev)
		elapsed := p.clock - start
		if elapsed > d {
			elapsed = d
		}
		d -= elapsed
		p.serviceInterrupts()
	}
	if tr != nil && p.clock > t0 {
		// The span covers wall virtual time (compute plus any handlers
		// that ran inside it); the counter sums pure compute.
		tr.Emit(trace.Event{T: int64(t0), Dur: int64(p.clock - t0),
			Layer: trace.LayerSim, Kind: "advance", Proc: p.id, Peer: -1})
		p.s.tc.advance.Add(1, int64(charged))
	}
}

// SetInterruptHandler installs the function invoked (in this process's
// context) for every delivered interrupt. Handlers run with further
// interrupts implicitly masked; interrupts arriving meanwhile queue.
func (p *Proc) SetInterruptHandler(h func(*Proc, any)) { p.irqHandler = h }

// DisableInterrupts masks interrupt delivery; pending and newly arriving
// interrupts queue until EnableInterrupts. Mirrors TreadMarks masking
// SIGIO around consistency-critical sections.
func (p *Proc) DisableInterrupts() {
	if !p.irqMasked && p.s.tracer != nil {
		p.maskedAt = p.clock
		p.maskTraced = true
	}
	p.irqMasked = true
}

// EnableInterrupts unmasks interrupts and immediately services any that
// queued while masked.
func (p *Proc) EnableInterrupts() {
	if p.irqMasked && p.maskTraced {
		p.maskTraced = false
		if tr := p.s.tracer; tr != nil {
			tr.Emit(trace.Event{T: int64(p.maskedAt), Dur: int64(p.clock - p.maskedAt),
				Layer: trace.LayerSim, Kind: "irq-masked", Proc: p.id, Peer: -1})
		}
	}
	p.irqMasked = false
	if p.state == stateRunning && !p.inHandler {
		p.serviceInterrupts()
	}
}

// InterruptsEnabled reports whether interrupts are currently deliverable.
func (p *Proc) InterruptsEnabled() bool { return !p.irqMasked }

// InHandler reports whether the process is running its interrupt handler.
// Handlers do not nest, so a process has two contexts — its mainline and
// its handler — and storage one context lends out can be kept apart from
// the other's by this bit.
func (p *Proc) InHandler() bool { return p.inHandler }

// Interrupt delivers payload to the process's interrupt handler. It may be
// called from scheduler context (device events) or from another process's
// context. If the target is blocked and unmasked it wakes immediately; if
// it is computing, the handler runs at the point its Advance next observes
// the interrupt (which is the interrupt's arrival time, because Advance's
// wake event and the interrupt wake race deterministically at the same
// scheduler). If masked, the interrupt queues.
func (p *Proc) Interrupt(payload any) {
	if p.state == stateDone {
		return
	}
	p.irqQ = append(p.irqQ, payload)
	if !p.irqMasked {
		p.wake()
	}
}

// PendingInterrupts returns the number of queued, undelivered interrupts.
func (p *Proc) PendingInterrupts() int { return len(p.irqQ) }

// serviceInterrupts runs queued handlers. Must be called in proc context.
func (p *Proc) serviceInterrupts() {
	if p.irqMasked || p.inHandler {
		return
	}
	for len(p.irqQ) > 0 {
		payload := p.irqQ[0]
		p.irqQ = p.irqQ[:copy(p.irqQ, p.irqQ[1:])]
		h := p.irqHandler
		if h == nil {
			panic(fmt.Sprintf("sim: proc %q received interrupt with no handler", p.name))
		}
		p.inHandler = true
		if tr := p.s.tracer; tr != nil {
			t0 := p.clock
			h(p, payload)
			tr.Emit(trace.Event{T: int64(t0), Dur: int64(p.clock - t0),
				Layer: trace.LayerSim, Kind: "interrupt", Proc: p.id, Peer: -1})
			p.s.tc.interrupts.Add(1, int64(p.clock-t0))
		} else {
			h(p, payload)
		}
		p.inHandler = false
	}
}

// WaitOn blocks until c is signalled (or a spurious wake, e.g. an
// interrupt, occurs — handlers run before returning). Callers must re-check
// their predicate in a loop:
//
//	for !pred() { p.WaitOn(c) }
func (p *Proc) WaitOn(c *Cond) {
	c.waiters = append(c.waiters, p)
	p.waitingOn = c
	p.waitWoken = false
	p.block(c.label)
	if !p.waitWoken {
		// Spurious wake (interrupt): withdraw from the wait list.
		c.remove(p)
	}
	p.waitingOn = nil
	p.serviceInterrupts()
}

// WaitOnUntil blocks like WaitOn but also wakes at the deadline. It
// reports false if the deadline passed without a signal.
func (p *Proc) WaitOnUntil(c *Cond, deadline Time) bool {
	if deadline <= p.clock {
		return false
	}
	ev := p.s.Timer(deadline, p.wakeFn)
	defer p.s.Release(ev) // stays armed while handlers run below, as ever
	c.waiters = append(c.waiters, p)
	p.waitingOn = c
	p.waitWoken = false
	p.block(c.label)
	if !p.waitWoken {
		c.remove(p)
	}
	p.waitingOn = nil
	woken := p.waitWoken
	p.serviceInterrupts()
	return woken
}

// Cond is a virtual-time condition variable. Broadcast and Signal wake
// waiters at the current simulator time; the woken process resumes with
// its clock set to that time.
type Cond struct {
	label   string // "cond:"+name, where a waiter is reported blocked
	waiters []*Proc
}

// NewCond creates a named condition variable (the name appears in
// deadlock reports).
func NewCond(name string) *Cond { return &Cond{label: "cond:" + name} }

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.waitWoken = true
		p.wake() // schedules only; nothing runs, or waits on c, until we return
	}
	c.waiters = c.waiters[:0]
}

// Signal wakes the longest-waiting waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[:copy(c.waiters, c.waiters[1:])]
	p.waitWoken = true
	p.wake()
}

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }
