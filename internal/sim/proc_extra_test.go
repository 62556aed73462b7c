package sim

import "testing"

func TestComputeScale(t *testing.T) {
	s := New(1)
	var end Time
	s.Spawn("p", 0, func(p *Proc) {
		p.SetComputeScale(1.5)
		p.Advance(1000)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1500 {
		t.Errorf("scaled advance ended at %v, want 1500", end)
	}
}

func TestComputeScaleBelowOnePanics(t *testing.T) {
	s := New(1)
	s.Spawn("p", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("SetComputeScale(0.5) did not panic")
			}
		}()
		p.SetComputeScale(0.5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptsEnabledAccessor(t *testing.T) {
	s := New(1)
	s.Spawn("p", 0, func(p *Proc) {
		if !p.InterruptsEnabled() {
			t.Error("interrupts disabled at start")
		}
		p.DisableInterrupts()
		if p.InterruptsEnabled() {
			t.Error("still enabled after disable")
		}
		p.EnableInterrupts()
		if !p.InterruptsEnabled() {
			t.Error("still disabled after enable")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedHandlerAdvances(t *testing.T) {
	// A handler that itself blocks (Advance) must preserve the outer
	// computation's accounting.
	s := New(1)
	var end Time
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			p.Advance(100)
		})
		p.Advance(1000)
		end = p.Now()
	})
	s.At(200, func() { p.Interrupt(nil) })
	s.At(300, func() { p.Interrupt(nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1200 {
		t.Errorf("end = %v, want 1200 (1000 compute + 2×100 handler)", end)
	}
}

func TestManyInterruptsQueueInOrder(t *testing.T) {
	s := New(1)
	var order []int
	p := s.Spawn("p", 0, func(p *Proc) {
		p.SetInterruptHandler(func(p *Proc, payload any) {
			order = append(order, payload.(int))
		})
		p.DisableInterrupts()
		p.Advance(100)
		p.EnableInterrupts()
	})
	for i := 0; i < 5; i++ {
		i := i
		s.At(Time(10+i), func() { p.Interrupt(i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("handled %d interrupts", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("interrupts reordered: %v", order)
		}
	}
}

func TestCondWaitersAccessor(t *testing.T) {
	s := New(1)
	c := NewCond("c")
	released := false
	for i := 0; i < 3; i++ {
		s.Spawn("w", 0, func(p *Proc) {
			for !released {
				p.WaitOn(c)
			}
		})
	}
	s.At(50, func() {
		if c.Waiters() != 3 {
			t.Errorf("Waiters() = %d, want 3", c.Waiters())
		}
		released = true
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
