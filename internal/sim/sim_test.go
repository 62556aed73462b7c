package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000µs"},
		{1500 * Nanosecond, "1.500µs"},
		{Millisecond, "1.000ms"},
		{2500 * Microsecond, "2.500ms"},
		{Second, "1.000000s"},
		{-Microsecond, "-1.000µs"},
		{Infinity, "inf"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v, want 2.5", got)
	}
	if got := Micro(9.4); got != 9400*Nanosecond {
		t.Errorf("Micro(9.4) = %v, want 9400ns", int64(got))
	}
	if got := (2 * Millisecond).Millis(); got != 2.0 {
		t.Errorf("Millis() = %v, want 2", got)
	}
}

func TestBytesTime(t *testing.T) {
	// 250 MB/s => 4 ns per byte.
	if got := BytesTime(1000, 250e6); got != 4000 {
		t.Errorf("BytesTime(1000, 250e6) = %v, want 4000", int64(got))
	}
	if got := BytesTime(0, 250e6); got != 0 {
		t.Errorf("BytesTime(0) = %v, want 0", int64(got))
	}
	if got := BytesTime(-5, 250e6); got != 0 {
		t.Errorf("BytesTime(-5) = %v, want 0", int64(got))
	}
	// Rounds up: 1 byte at 3 bytes/ns-ish rates never takes 0 time.
	if got := BytesTime(1, 3e9); got == 0 {
		t.Error("BytesTime(1, 3e9) = 0, want > 0")
	}
}

func TestEventsFireInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	// Calling a callback off is releasing its Timer: it never fires, it
	// leaves the queue at once, and its Event is the next one handed out.
	s := New(1)
	fired := false
	e := s.Timer(10, func() { fired = true })
	s.At(5, func() {
		s.Release(e)
		if len(s.queue) != 0 {
			t.Errorf("%d events queued after the release, want 0", len(s.queue))
		}
		if s.Timer(20, func() {}) != e {
			t.Error("a released Event was not reused")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("released timer fired")
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20 (the reused timer fired)", s.Now())
	}
}

// The event queue against a reference: random pushes, pops and releases
// (many events share a time, so the sequence number decides), with the
// heap order and every event's index checked after each step; the queue
// then drains in the order of a sort by (t, seq).
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	byTimeSeq := func(a, b *Event) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
	}
	for round := 0; round < 40; round++ {
		s := New(1)
		var live []*Event // queued, in no order
		check := func(step int) {
			if len(s.queue) != len(live) {
				t.Fatalf("round %d step %d: %d events queued, want %d", round, step, len(s.queue), len(live))
			}
			for i, e := range s.queue {
				if e.index != i {
					t.Fatalf("round %d step %d: event at %d has index %d", round, step, i, e.index)
				}
				if i > 0 && before(e, s.queue[(i-1)/2]) {
					t.Fatalf("round %d step %d: event at %d fires before its parent", round, step, i)
				}
			}
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(5); {
			case op < 3 || len(live) == 0: // the queue grows, so a release reaches deep slots
				live = append(live, s.Timer(Time(rng.Intn(16)), nil))
			case op == 3:
				want := slices.MinFunc(live, byTimeSeq)
				got := s.queue.pop()
				if got != want || got.index != -1 {
					t.Fatalf("round %d step %d: popped (%v, %d) index %d, want (%v, %d) index -1",
						round, step, got.t, got.seq, got.index, want.t, want.seq)
				}
				live = slices.DeleteFunc(live, func(e *Event) bool { return e == got })
				s.Release(got)
			default:
				i := rng.Intn(len(live))
				e := live[i]
				s.Release(e)
				if e.index != -1 {
					t.Fatalf("round %d step %d: released event keeps index %d", round, step, e.index)
				}
				live = slices.Delete(live, i, i+1)
			}
			check(step)
		}
		slices.SortFunc(live, byTimeSeq)
		for i, want := range live {
			if got := s.queue.pop(); got != want {
				t.Fatalf("round %d: drain %d popped (%v, %d), want (%v, %d)", round, i, got.t, got.seq, want.t, want.seq)
			}
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New(1)
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvance(t *testing.T) {
	s := New(1)
	var end Time
	s.Spawn("a", 0, func(p *Proc) {
		p.Advance(100)
		p.Advance(200)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 300 {
		t.Errorf("end = %v, want 300", end)
	}
}

func TestProcStartTime(t *testing.T) {
	s := New(1)
	var start Time
	s.Spawn("late", 42, func(p *Proc) { start = p.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 42 {
		t.Errorf("start = %v, want 42", start)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	s := New(1)
	var order []string
	mk := func(name string, step Time) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(step)
				order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		}
	}
	s.Spawn("a", 0, mk("a", 10))
	s.Spawn("b", 0, mk("b", 15))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// At the t=30 tie, b's wake event was scheduled first (at t=15,
	// before a's at t=20), so FIFO tie-breaking runs b first.
	want := "[a@10 b@15 a@20 b@30 a@30 b@45]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	ready := false
	var woke []Time
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			for !ready {
				p.WaitOn(c)
			}
			woke = append(woke, p.Now())
		})
	}
	s.Spawn("sig", 0, func(p *Proc) {
		p.Advance(500)
		ready = true
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 500 {
			t.Errorf("waiter woke at %v, want 500", w)
		}
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	turns := 0
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			for turns == 0 {
				p.WaitOn(c)
			}
			turns--
		})
	}
	s.Spawn("sig", 0, func(p *Proc) {
		p.Advance(10)
		turns = 1
		c.Signal()
		p.Advance(10)
		turns = 1
		c.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if turns != 0 {
		t.Errorf("turns = %d, want 0", turns)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	c := NewCond("never")
	s.Spawn("stuck", 0, func(p *Proc) {
		p.WaitOn(c)
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck@cond:never" {
		t.Errorf("Blocked = %v", de.Blocked)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "sim: deadlock at ") || !strings.HasSuffix(msg, "; blocked: stuck@cond:never") {
		t.Errorf("Error() = %q", msg)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	n := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*10, func() { n++ })
	}
	if err := s.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("n = %d after RunUntil(35), want 3", n)
	}
	if s.Now() != 35 {
		t.Errorf("Now() = %v, want 35", s.Now())
	}
	if err := s.RunUntil(Infinity); err == nil {
		// No procs; queue drains fully with no blocked procs: nil is right.
	} else {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("n = %d after full run, want 10", n)
	}
}

func TestInterruptWhileBlocked(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	var handlerAt, resumedAt Time
	done := false
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			handlerAt = p.Now()
			p.Advance(7) // handler service time
		})
		for !done {
			p.WaitOn(c)
		}
		resumedAt = p.Now()
	})
	s.At(100, func() { p.Interrupt("ping") })
	s.At(200, func() { done = true; c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handlerAt != 100 {
		t.Errorf("handler ran at %v, want 100", handlerAt)
	}
	if resumedAt != 200 {
		t.Errorf("resumed at %v, want 200", resumedAt)
	}
}

func TestInterruptDuringAdvanceExtendsCompute(t *testing.T) {
	s := New(1)
	var handlerAt, endAt Time
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			handlerAt = p.Now()
			p.Advance(50)
		})
		p.Advance(1000)
		endAt = p.Now()
	})
	s.At(400, func() { p.Interrupt(nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handlerAt != 400 {
		t.Errorf("handler at %v, want 400", handlerAt)
	}
	// 1000 of compute plus 50 of handler time.
	if endAt != 1050 {
		t.Errorf("compute finished at %v, want 1050", endAt)
	}
}

// An Advance nothing can interrupt runs in place: a lone proc's compute
// dispatches no event, and its clock (and the simulator's) ends at
// start+d.
func TestAdvanceWithNothingDueDispatchesNoEvent(t *testing.T) {
	s := New(1)
	s.SetTracer(trace.New(0))
	events := s.Tracer().Metrics().Lookup(trace.LayerSim + "/events")
	var before, after int64
	var end, simEnd Time
	s.Spawn("p", 5, func(p *Proc) {
		before = events.N
		p.Advance(100)
		after = events.N
		end, simEnd = p.Now(), s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("Advance dispatched %d events, want 0", after-before)
	}
	if end != 105 || simEnd != 105 {
		t.Errorf("Advance ended at proc %v, simulator %v; want 105 and 105", end, simEnd)
	}
}

// An event due exactly when an Advance ends still runs before the proc
// resumes, as it did when the Advance's wake timer was queued behind it;
// one due later does not.
func TestEventDueAtAdvanceEndRunsFirst(t *testing.T) {
	s := New(1)
	var at100, at101 bool
	var seen100, seen101 bool
	s.At(100, func() { at100 = true })
	s.At(101, func() { at101 = true })
	s.Spawn("p", 0, func(p *Proc) {
		p.Advance(100)
		seen100, seen101 = at100, at101
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !seen100 || seen101 {
		t.Errorf("at the Advance's end the event due then had run: %v, the later one: %v; want true, false",
			seen100, seen101)
	}
}

// RunUntil's limit bounds an Advance in place: a run stopped inside the
// computation leaves the proc unresumed, and the next run finishes the
// Advance at the same virtual time. One ending exactly at the limit
// completes.
func TestRunUntilStopsInsideAdvance(t *testing.T) {
	s := New(1)
	var resumed []Time
	s.Spawn("p", 0, func(p *Proc) {
		p.Advance(100)
		resumed = append(resumed, p.Now())
		p.Advance(50)
		resumed = append(resumed, p.Now())
	})
	if err := s.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 || s.Now() != 60 {
		t.Fatalf("RunUntil(60) resumed the proc at %v, now %v; want unresumed at 60", resumed, s.Now())
	}
	if err := s.RunUntil(150); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 2 || resumed[0] != 100 || resumed[1] != 150 {
		t.Errorf("the proc resumed at %v, want [100 150]", resumed)
	}
}

func TestInterruptMasking(t *testing.T) {
	s := New(1)
	var handlerAt Time
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			handlerAt = p.Now()
		})
		p.DisableInterrupts()
		p.Advance(100) // interrupt at 50 must NOT fire here
		if p.PendingInterrupts() != 1 {
			t.Errorf("pending = %d, want 1", p.PendingInterrupts())
		}
		p.Advance(25)
		p.EnableInterrupts() // fires now, at 125
	})
	s.At(50, func() { p.Interrupt(nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handlerAt != 125 {
		t.Errorf("handler at %v, want 125 (deferred past mask)", handlerAt)
	}
}

func TestInterruptHandlerNotReentrant(t *testing.T) {
	s := New(1)
	depth, maxDepth := 0, 0
	var p *Proc
	p = s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
			p.Advance(30) // second interrupt arrives during this window
			depth--
		})
		p.Advance(100)
	})
	s.At(10, func() { p.Interrupt(1) })
	s.At(20, func() { p.Interrupt(2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxDepth != 1 {
		t.Errorf("handler nesting depth = %d, want 1", maxDepth)
	}
}

func TestWaitOnUntilTimesOut(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	var got bool
	var at Time
	s.Spawn("p", 0, func(p *Proc) {
		got = p.WaitOnUntil(c, 80)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("WaitOnUntil reported signal on timeout")
	}
	if at != 80 {
		t.Errorf("woke at %v, want 80", at)
	}
	if c.Waiters() != 0 {
		t.Errorf("waiters = %d, want 0 after timeout removal", c.Waiters())
	}
}

func TestWaitOnUntilSignalled(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	var got bool
	var at Time
	s.Spawn("p", 0, func(p *Proc) {
		got = p.WaitOnUntil(c, 500)
		at = p.Now()
	})
	s.At(60, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("WaitOnUntil reported timeout despite signal")
	}
	if at != 60 {
		t.Errorf("woke at %v, want 60", at)
	}
}

func TestWaitOnUntilPastDeadline(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	s.Spawn("p", 0, func(p *Proc) {
		p.Advance(100)
		if p.WaitOnUntil(c, 50) {
			t.Error("WaitOnUntil with past deadline returned true")
		}
		if p.Now() != 100 {
			t.Errorf("clock moved to %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptToDoneProcIsDropped(t *testing.T) {
	s := New(1)
	p := s.Spawn("p", 0, func(p *Proc) {})
	s.At(100, func() { p.Interrupt(nil) }) // must not panic or deadlock
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Time, string) {
		s := New(42)
		var log []string
		c := NewCond("c")
		count := 0
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(Time(s.Rand().Intn(100) + 1))
					count++
					c.Broadcast()
					log = append(log, fmt.Sprintf("%d:%d@%d", i, j, p.Now()))
				}
			})
		}
		_ = count
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), fmt.Sprint(log)
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Errorf("runs diverged: %v vs %v", t1, t2)
	}
}

func TestProcsAccessor(t *testing.T) {
	s := New(1)
	a := s.Spawn("a", 0, func(p *Proc) {})
	b := s.Spawn("b", 0, func(p *Proc) {})
	ps := s.Procs()
	if len(ps) != 2 || ps[0] != a || ps[1] != b {
		t.Errorf("Procs() = %v", ps)
	}
	if a.ID() != 0 || b.ID() != 1 || a.Name() != "a" {
		t.Error("proc metadata wrong")
	}
	if a.Sim() != s {
		t.Error("Sim() accessor wrong")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
