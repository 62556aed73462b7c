package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// The handoff contract: how a process ends is seen by the goroutine inside
// Run, because the process is its coroutine.

func TestKillAndExitRunDefersAndLetOthersFinish(t *testing.T) {
	s := New(1)
	c := NewCond("never")
	var deferred []string
	blocked := s.Spawn("blocked", 0, func(p *Proc) {
		defer func() { deferred = append(deferred, "blocked") }()
		p.WaitOnUntil(c, 1000) // its deferred timer release must run too
		t.Error("killed proc resumed")
	})
	exits := s.Spawn("exits", 0, func(p *Proc) {
		defer func() { deferred = append(deferred, "exits") }()
		p.Advance(20)
		p.Exit()
		t.Error("Exit returned")
	})
	var end Time
	other := s.Spawn("other", 0, func(p *Proc) {
		p.Advance(10)
		blocked.Kill()
		p.Advance(100)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(deferred, ","); got != "blocked,exits" {
		t.Errorf("deferred functions ran: %q, want blocked,exits", got)
	}
	for _, p := range []*Proc{blocked, exits, other} {
		if !p.Done() {
			t.Errorf("%s not done", p.Name())
		}
	}
	if !blocked.Killed() || !exits.Killed() || other.Killed() {
		t.Errorf("Killed() = %v %v %v, want true true false", blocked.Killed(), exits.Killed(), other.Killed())
	}
	if end != 110 {
		t.Errorf("surviving proc ended at %v, want 110", end)
	}
	if len(s.queue) != 0 {
		t.Errorf("%d events still queued: the killed proc's deadline timer was not released", len(s.queue))
	}
}

func TestProcPanicSurfacesOnRunsGoroutine(t *testing.T) {
	s := New(1)
	cause := errors.New("invariant broken")
	s.Spawn("bystander", 0, func(p *Proc) { p.Advance(100) })
	bad := s.Spawn("bad", 0, func(p *Proc) {
		p.Advance(10)
		panic(cause)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = s.Run()
		t.Error("Run returned past a proc panic")
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", got, got)
	}
	for _, want := range []string{`proc "bad"`, cause.Error(), "TestProcPanicSurfacesOnRunsGoroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message lacks %q (the proc, the value, the raising frame):\n%v", want, err)
		}
	}
	if !bad.Done() || s.Now() != 10 {
		t.Errorf("bad.Done() = %v at %v, want done at 10", bad.Done(), s.Now())
	}
}

func TestForeignGoexitEndsRunsGoroutine(t *testing.T) {
	// t.Fatalf in a proc body is runtime.Goexit there; testing.FailNow
	// needs the test's own goroutine — the one inside Run — to end.
	s := New(1)
	dies := s.Spawn("dies", 0, func(p *Proc) {
		p.Advance(10)
		fatalf() // stands in for t.Fatalf
	})
	finished, returned, cleanedUp := make(chan struct{}), false, false
	go func() {
		defer close(finished)
		defer func() { cleanedUp = true }()
		_ = s.Run()
		returned = true
	}()
	<-finished
	if returned || !cleanedUp {
		t.Errorf("Run returned = %v, caller's defers ran = %v; want the calling goroutine ended by Goexit", returned, cleanedUp)
	}
	if !dies.Done() {
		t.Error("proc not marked done")
	}
	if s.running {
		t.Error("simulator still marked running")
	}
}

func TestRecycledTimerHasNoStaleHolder(t *testing.T) {
	// Advance arms a timer for 50; an interrupt at 10 releases it (it must
	// leave the heap) and the handler's nested Advance re-arms the same
	// recycled Event for 15. A stale entry would wake the outer Advance at
	// 50 instead of 55, or let its release cancel the handler's timer. The
	// At events share the one free list: the run needs one Event per
	// holder alive at once, and every one of them is free again at the end.
	s := New(1)
	var handlerEnd, end Time
	var events int
	var outer *Event
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, _ any) {
			if n := len(s.free); n != 1 || s.free[0] != outer {
				t.Errorf("free Events in handler = %d, want the one the outer Advance released", n)
			}
			p.Advance(5)
			handlerEnd = p.Now()
		})
		outer = s.free[len(s.free)-1] // the spawn's fired dispatch, Advance's timer next
		p.Advance(50)
		end = p.Now()
	})
	s.At(10, func() {
		p.Interrupt(nil)
		s.At(10, func() { events = len(s.queue) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handlerEnd != 15 || end != 55 {
		t.Errorf("handler ended at %v, Advance at %v; want 15 and 55", handlerEnd, end)
	}
	// Queued once the handler blocked: its own timer only. The released 50
	// timer is gone, not waiting to be skipped.
	if events != 1 {
		t.Errorf("%d events queued after the release, want 1", events)
	}
	if len(s.free) != 2 || len(s.queue) != 0 {
		t.Errorf("%d Events free and %d queued at the end, want 2 and 0: one per concurrent holder, all returned",
			len(s.free), len(s.queue))
	}
}

// TestAtAllocatesNothing: a scheduler event costs the host no allocation
// once the free list holds one — the fired Event is the next one handed
// out — when its callback is a func value built once.
func TestAtAllocatesNothing(t *testing.T) {
	s := New(1)
	fired := 0
	tick := func() { fired++ }
	var allocs float64
	s.Spawn("measured", 0, func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			s.After(5, tick)
			p.Advance(10)
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 || fired != 101 {
		t.Errorf("allocations per At = %v over %d firings, want 0 over 101", allocs, fired)
	}
}

// The two switches every simulated instruction stream is made of cost the
// host no allocation. Measured from inside a proc: AllocsPerRun's body is
// one full round trip through the scheduler loop.

func TestSwitchAllocatesNothing(t *testing.T) {
	s := New(1)
	conds := [2]*Cond{NewCond("a"), NewCond("b")}
	turn, stop := 0, false
	var pingPong, advance float64
	pass := func(p *Proc, me int) {
		turn = 1 - me
		conds[1-me].Signal()
		for turn != me && !stop {
			p.WaitOn(conds[me])
		}
	}
	s.Spawn("measured", 0, func(p *Proc) {
		pingPong = testing.AllocsPerRun(100, func() { pass(p, 0) })
		advance = testing.AllocsPerRun(100, func() { p.Advance(10) })
		stop = true
		conds[1].Signal()
	})
	s.Spawn("partner", 0, func(p *Proc) {
		for !stop {
			pass(p, 1)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if pingPong != 0 || advance != 0 {
		t.Errorf("allocations per WaitOn/Signal round trip = %v, per Advance = %v; want 0 and 0", pingPong, advance)
	}
}

func fatalf() { runtime.Goexit() }
