package tmk

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CheckViews fails t unless the protocol trace printed while subscribed
// (text) is the rendering of tr's tmk events in ring order, and unless
// every kind in kinds is in the ring and renders as a text line. The ring
// must not have wrapped.
func CheckViews(t *testing.T, tr *trace.Tracer, text string, kinds ...string) {
	t.Helper()
	if n := tr.Overwrote(); n > 0 {
		t.Fatalf("ring wrapped (%d events lost)", n)
	}
	var all, one bytes.Buffer
	render, renderOne := TextTrace(&all), TextTrace(&one)
	first := map[string]trace.Event{}
	for _, e := range tr.Events() {
		render(e)
		if _, ok := first[e.Kind]; !ok && e.Layer == trace.LayerTMK {
			first[e.Kind] = e
		}
	}
	if all.String() != text {
		t.Errorf("the printed trace is not the ring's tmk events rendered:\nprinted:\n%s\nrendered:\n%s", text, all.String())
	}
	for _, k := range kinds {
		e, ok := first[k]
		if !ok {
			t.Errorf("no %s event in the ring", k)
			continue
		}
		one.Reset()
		renderOne(e)
		if one.Len() == 0 {
			t.Errorf("the protocol trace prints no line for %s", k)
		}
	}
}

// TestEveryKindReachesEveryView runs a three-rank program that produces
// every tmk kind but crash-detected (TestAbortNamesBlockingEntity has it): a sole
// writer for two epochs (write fault, diff create, notice, barrier arrive
// and cross, then the others' read faults; homeless the diffs are fetched
// and applied, home-based they are flushed to the page's home, rank 0, and
// rank 2 fetches it from there), then lock 0 (managed by rank 0)
// taken remotely by rank 1, forwarded to it for rank 2, and re-taken
// locally by rank 2. Each kind must be in the ring and the protocol trace,
// whose lines carry the virtual time the event happened.
func TestEveryKindReachesEveryView(t *testing.T) {
	common := []string{trace.KindReadFault, trace.KindWriteFault, trace.KindDiffCreate, trace.KindNotice,
		trace.KindLockLocal, trace.KindLockAcquire, trace.KindLockForward, trace.KindLockGrant, trace.KindLockRelease,
		trace.KindBarrierArrive, trace.KindBarrier}
	for kind, own := range map[TransportKind][]string{
		TransportFastGM: {trace.KindDiffFetch, trace.KindDiffApply},
		TransportRDMAGM: {trace.KindHomeFetch, trace.KindHomeFlush},
	} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig(3, kind)
			tr := trace.New(1 << 16)
			var text strings.Builder
			tr.Subscribe(TextTrace(&text))
			cfg.Trace = tr
			var relocked sim.Time
			if _, err := Run(cfg, func(tp *Proc) {
				r := tp.AllocShared(PageSize) // homed at rank 0
				tp.Barrier(1)
				for e := 0; e < 2; e++ {
					if tp.Rank() == 1 {
						tp.WriteI32(r, 0, int32(e+1))
					}
					tp.Barrier(int32(2 + e))
					tp.ReadI32(r, 0)
				}
				if tp.Rank() == 1 {
					tp.LockAcquire(0)
					tp.LockRelease(0)
				}
				tp.Barrier(10)
				if tp.Rank() == 2 {
					tp.LockAcquire(0)
					tp.LockRelease(0)
					relocked = tp.Now()
					tp.LockAcquire(0)
					tp.LockRelease(0)
				}
				tp.Barrier(11)
			}); err != nil {
				t.Fatal(err)
			}
			CheckViews(t, tr, text.String(), append(common, own...)...)
			if line := fmt.Sprintf("[%v] tmk: rank 2 acquire lock 0 locally\n", relocked); !strings.Contains(text.String(), line) {
				t.Errorf("the printed trace has no line %q", line)
			}
		})
	}
}

// TestObserveUnattachedAllocatesNothing: with no tracer the observation
// call — and naming the entity a call blocks on — is free of allocations,
// so plain runs pay nothing for absent listeners. Attached, with a warm
// ring and the profiler subscribed, a repeat read fault on a page the
// profiler has seen allocates nothing either: the record is flat.
func TestObserveUnattachedAllocatesNothing(t *testing.T) {
	tp := &Proc{cluster: NewCluster(DefaultConfig(1, TransportFastGM))}
	pm := &pageMeta{id: 3, region: &Region{ID: 1}}
	if n := testing.AllocsPerRun(100, func() {
		tp.observe(event{kind: trace.KindReadFault, start: 5, dur: 7, page: pm, peer: -1, bytes: PageSize})
		tp.observe(event{kind: trace.KindHomeFlush, start: 5, dur: 7, page: pm, peer: 2, bytes: 4})
		tp.blockedOn = blocked("page %d (fetch from %d)", int(pm.id), 1)
	}); n != 0 {
		t.Errorf("unattached observe allocates %v times per call", n)
	}
	if got := tp.blockedOn.String(); got != "page 3 (fetch from 1)" {
		t.Errorf("blocked entity renders %q", got)
	}

	cfg := DefaultConfig(1, TransportFastGM)
	tr, pf := trace.New(16), prof.New()
	tr.Subscribe(pf.Observe)
	cfg.Trace = tr
	var attached float64
	if _, err := Run(cfg, func(tp *Proc) {
		attached = testing.AllocsPerRun(100, func() {
			tp.observe(event{kind: trace.KindReadFault, start: 5, dur: 7, page: pm, peer: -1, bytes: PageSize})
		})
	}); err != nil {
		t.Fatal(err)
	}
	if attached != 0 {
		t.Errorf("attached observe of a repeat read fault allocates %v times per call", attached)
	}
	if ps := pf.Snapshot().Pages; len(ps) != 1 || ps[0].ReadFaults != 101 {
		t.Errorf("profiler saw %+v, want page 3 with 101 read faults", ps)
	}
}
