package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Simulator owns the virtual clock, the event queue and all processes.
// It is not safe for concurrent use from multiple goroutines — but the
// kernel's handoff discipline guarantees that at most one goroutine (the
// scheduler or the single running process) touches it at a time, so no
// locking is needed anywhere above it either.
type Simulator struct {
	now     Time
	queue   eventQueue
	seq     uint64
	procs   []*Proc
	free    []*Event // fired At events and released timers, reused by both
	made    int      // Events made, free or not: what the next slab doubles
	rng     *rand.Rand
	running bool
	limit   Time // the running RunUntil's limit: no event after it fires

	tracer *trace.Tracer
	tc     simCounters // cached registry entries, valid iff tracer != nil
}

// simCounters caches the scheduler's hot-path registry entries so the
// per-event and per-Advance hooks cost one nil check and no map lookup.
type simCounters struct {
	events     *trace.Counter // scheduler events dispatched
	advance    *trace.Counter // compute charged via Advance
	interrupts *trace.Counter // interrupt handlers run
}

// New creates a simulator whose random source is seeded deterministically.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetTracer attaches a structured tracer (nil detaches). Tracing records
// events and metrics only — it never charges virtual time — so results are
// bit-identical with and without a tracer.
func (s *Simulator) SetTracer(t *trace.Tracer) {
	s.tracer = t
	if t == nil {
		s.tc = simCounters{}
		return
	}
	reg := t.Metrics()
	s.tc = simCounters{
		events:     reg.Counter(trace.LayerSim, "events"),
		advance:    reg.Counter(trace.LayerSim, "advance"),
		interrupts: reg.Counter(trace.LayerSim, "interrupts"),
	}
	for _, p := range s.procs {
		t.SetThreadName(p.id, p.name)
	}
}

// Tracer returns the attached structured tracer, or nil.
func (s *Simulator) Tracer() *trace.Tracer { return s.tracer }

// At schedules fn to run in scheduler context at virtual time t. It hands
// out no handle: the Event is the simulator's, recycled as it fires, so a
// callback that may have to be called off is a Timer instead. A func value
// built once (a method value kept in a field) makes the call allocate
// nothing. Scheduling in the past is an error in the model; it panics.
func (s *Simulator) At(t Time, fn func()) {
	s.push(s.event(t, fn, true))
}

// After schedules fn to run d from now.
func (s *Simulator) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Timer is At for a holder that may call the callback off: the returned
// Event is the caller's until it hands it back with Release, exactly once,
// whether or not it fired — so a reused Event has no other holder.
func (s *Simulator) Timer(t Time, fn func()) *Event {
	e := s.event(t, fn, false)
	s.push(e)
	return e
}

// Release disarms a Timer's Event and returns it for reuse. A pending
// event leaves the heap at once, so nothing queued ever points at a free
// Event and a called-off timeout costs the queue nothing.
func (s *Simulator) Release(e *Event) {
	if e.index >= 0 {
		s.queue.remove(e.index)
	}
	e.fn = nil
	s.free = append(s.free, e)
}

// event takes a free Event set to fire fn at t. A dry free list first
// grows by as many Events as the simulator has made, in one allocation, so
// a run's peak of Events alive at once costs a logarithmic number of
// allocations, not one each.
func (s *Simulator) event(t Time, fn func(), pooled bool) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if len(s.free) == 0 {
		slab := make([]Event, max(s.made, 1))
		s.made += len(slab)
		for i := range slab {
			s.free = append(s.free, &slab[i])
		}
	}
	n := len(s.free)
	e := s.free[n-1]
	s.free = s.free[:n-1]
	e.t, e.fn, e.pooled = t, fn, pooled
	return e
}

// push queues e, which must not be queued already, at its time.
func (s *Simulator) push(e *Event) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
}

// Spawn creates a process that will begin executing fn at time start.
//
// fn runs as a coroutine of whichever goroutine is inside Run, so how it
// ends is seen there: a return, Exit or Kill ends the process and the run
// goes on; a panic is re-raised from Run, recoverable by Run's caller, as
// an error naming the process and carrying the stack it was raised on
// (which the switch would otherwise lose); runtime.Goexit in fn (t.Fatalf
// in a test body) ends the goroutine that called Run, deferred calls and
// all — which is what testing.FailNow requires of the test's goroutine.
func (s *Simulator) Spawn(name string, start Time, fn func(*Proc)) *Proc {
	if start < s.now {
		start = s.now
	}
	p := &Proc{
		s:     s,
		name:  name,
		id:    len(s.procs),
		clock: start,
		state: stateBlocked,
		where: "spawn",
	}
	dispatch := func() { s.dispatch(p) }
	p.wakeFn, p.dispatchEv.fn = p.wake, dispatch
	s.procs = append(s.procs, p)
	if s.tracer != nil {
		s.tracer.SetThreadName(p.id, name)
	}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = stateDone
			if r := recover(); r != nil && r != (killed{}) {
				panic(fmt.Errorf("sim: proc %q panicked: %v\n%s", name, r, debug.Stack()))
			}
		}()
		if !p.killed { // else killed before first dispatch
			fn(p)
		}
	})
	// A fresh event, not dispatchEv: an Interrupt or Kill before start
	// wakes the proc through dispatchEv while this one is still queued.
	s.At(start, dispatch)
	return p
}

// dispatch hands control to p until it blocks or finishes. Must be called
// from scheduler context (inside an event callback).
func (s *Simulator) dispatch(p *Proc) {
	if p.state == stateDone {
		return
	}
	if p.state == stateRunning {
		panic("sim: dispatching a running proc")
	}
	p.state = stateRunning
	if p.clock < s.now {
		p.clock = s.now
	}
	p.next()
}

// DeadlockError reports a simulation that went quiescent while processes
// were still blocked.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name@where" for each still-blocked process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked: %s", e.Time, strings.Join(e.Blocked, ", "))
}

// Run executes events until the queue is empty. It returns nil when every
// process has finished, or a *DeadlockError when the queue drained while
// processes remain blocked.
func (s *Simulator) Run() error { return s.RunUntil(Infinity) }

// RunUntil executes events with time ≤ limit. Reaching the limit with
// events still pending is not an error; the simulation may be resumed.
func (s *Simulator) RunUntil(limit Time) error {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running, s.limit = true, limit
	defer func() { s.running = false }()
	for {
		e := s.queue.peek()
		if e == nil {
			break
		}
		if e.t > limit {
			s.now = limit
			return nil
		}
		s.queue.pop()
		if e.t < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %v < %v", e.t, s.now))
		}
		s.now = e.t
		if s.tc.events != nil {
			s.tc.events.Add(1, 0)
		}
		fn := e.fn
		if e.pooled {
			// Free before the call, which may schedule into it.
			e.fn = nil
			s.free = append(s.free, e)
		}
		fn()
	}
	var blocked []string
	for _, p := range s.procs {
		if p.state != stateDone {
			blocked = append(blocked, p.name+"@"+p.where)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: s.now, Blocked: blocked}
	}
	return nil
}

// idleThrough reports whether an event pushed now for t would be the next
// to fire: no queued event is due at or before t (one due at t itself
// holds a lower sequence number, so it fires first) and t is within the
// running RunUntil's limit.
func (s *Simulator) idleThrough(t Time) bool {
	if t > s.limit {
		return false
	}
	e := s.queue.peek()
	return e == nil || e.t > t
}

// Procs returns the processes spawned so far, in spawn order.
func (s *Simulator) Procs() []*Proc { return s.procs }
