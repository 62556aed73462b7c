package tmk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestTraceTo: the protocol trace is a rendering of the event stream —
// one line per printed event, prefixed with the virtual time it happened.
func TestTraceTo(t *testing.T) {
	c := NewCluster(DefaultConfig(1, TransportFastGM))
	var out bytes.Buffer
	c.TraceTo(&out)
	var at sim.Time
	if _, err := c.Run(func(tp *Proc) {
		at = tp.Now()
		tp.LockAcquire(7)
		tp.LockRelease(7)
	}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("[%v] tmk: rank 0 acquire lock 7 locally\n", at); out.String() != want {
		t.Errorf("trace = %q, want %q", out.String(), want)
	}
}

// TestObserveUnattachedAllocatesNothing: with no tracer, profiler or text
// sink the observation call — and naming the entity a call blocks on —
// is free of allocations, so plain runs pay nothing for absent listeners.
func TestObserveUnattachedAllocatesNothing(t *testing.T) {
	tp := &Proc{cluster: NewCluster(DefaultConfig(1, TransportFastGM))}
	pm := &pageMeta{id: 3, region: &Region{ID: 1}}
	if n := testing.AllocsPerRun(100, func() {
		tp.observe(event{kind: evReadFault, start: 5, dur: 7, page: pm, peer: -1, bytes: PageSize})
		tp.observe(event{kind: evHomeMove, page: pm, peer: 2})
		tp.blockedOn = blocked("page %d (fetch from %d)", int(pm.id), 1)
	}); n != 0 {
		t.Errorf("unattached observe allocates %v times per call", n)
	}
	if got := tp.blockedOn.String(); got != "page 3 (fetch from 1)" {
		t.Errorf("blocked entity renders %q", got)
	}
}
