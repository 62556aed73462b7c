package harness

import (
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestHedgeUnderChaosDeterminism: flow control and hedging armed
// together on a lossy fabric. Hedged duplicates ride the (origin, seq)
// duplicate filter and credit refreshes repair lost credit frames — and
// the whole stack must stay a deterministic function of the seed: the
// same configuration twice is bit-identical, and every application still
// verifies against its sequential reference.
func TestHedgeUnderChaosDeterminism(t *testing.T) {
	spec := DefaultChaosSpec()
	mutate := func(cfg *tmk.Config) {
		spec.Mutate(cfg)
		cfg.Flow = true
		cfg.Hedge = true
	}
	var hedged, stalls, rdmaPuts, rdmaRetx int64
	for _, app := range chaosApps() {
		for _, kind := range AllTransports {
			a, err := VerifiedRun(app, spec.Nodes, kind, mutate)
			if err != nil {
				t.Fatalf("%s/%s run A: %v", app.Name(), kind, err)
			}
			b, err := VerifiedRun(app, spec.Nodes, kind, mutate)
			if err != nil {
				t.Fatalf("%s/%s run B: %v", app.Name(), kind, err)
			}
			if err := sameResult(a, b); err != nil {
				t.Errorf("%s/%s: flow+hedge under chaos not deterministic: %v", app.Name(), kind, err)
			}
			if a.DisabledPorts != 0 {
				t.Errorf("%s/%s: %d GM ports left disabled", app.Name(), kind, a.DisabledPorts)
			}
			hedged += a.Transport.HedgedRequests
			stalls += a.Transport.CreditStalls
			if kind == tmk.TransportRDMAGM {
				rdmaPuts += a.Transport.OneSidedPuts
				rdmaRetx += a.Transport.Retransmits
			}
		}
	}
	if hedged == 0 {
		t.Error("no hedged request fired anywhere in the chaos sweep; weak test")
	}
	if stalls == 0 {
		t.Error("no credit stall anywhere in the chaos sweep; weak test")
	}
	// The home-based runs recover lost verbs from the waiting process (the
	// core's wait loop), not from a timer: they must have exercised it.
	if rdmaPuts == 0 || rdmaRetx == 0 {
		t.Errorf("rdmagm runs posted %d puts and retransmitted %d frames; weak test", rdmaPuts, rdmaRetx)
	}
}

// TestMetaGCBoundsMetadata: the plateau experiment. Without GC, protocol
// metadata (retained diffs, interval records, write notices) grows with
// run length — the GC-off ladder stops at 16 iterations because by 32 the
// accumulated intervals overflow TreadMarks' 32 KB message cap outright.
// With barrier-epoch GC armed the peak goes flat, the prune counters show
// real collection, and the application still verifies bit-exact.
//
// The two ladders are offset deliberately: Jacobi's per-interval diffs
// ramp for ~10 iterations before saturating at full-page size (the data
// evolves toward every-word-changed), so the plateau only becomes visible
// past that ramp. The GC-on ladder therefore starts where the GC-off one
// ends. A third ladder holds home-based LRC, which prunes at every barrier
// instead, to the same flatness.
func TestMetaGCBoundsMetadata(t *testing.T) {
	offLadder := []int{4, 8, 16}
	onLadder := []int{16, 32, 64}
	jacobi := func(iters int) *apps.Jacobi {
		return &apps.Jacobi{N: 64, Iters: iters, CostPerPoint: 30 * sim.Nanosecond}
	}
	for _, kind := range []tmk.TransportKind{tmk.TransportUDPGM, tmk.TransportFastGM} {
		var off, on []int64
		var last tmk.Stats
		for _, iters := range offLadder {
			base, err := VerifiedRun(jacobi(iters), 4, kind, func(cfg *tmk.Config) { cfg.Seed = 1 })
			if err != nil {
				t.Fatalf("%s iters=%d base: %v", kind, iters, err)
			}
			off = append(off, base.Stats.MetaBytesPeak)
			t.Logf("%s iters=%d: peak off=%d", kind, iters, base.Stats.MetaBytesPeak)
		}
		for _, iters := range onLadder {
			gc, err := VerifiedRun(jacobi(iters), 4, kind, func(cfg *tmk.Config) {
				cfg.Seed = 1
				cfg.MetaGC = 8 << 10
			})
			if err != nil {
				t.Fatalf("%s iters=%d gc: %v", kind, iters, err)
			}
			on = append(on, gc.Stats.MetaBytesPeak)
			last = gc.Stats
			t.Logf("%s iters=%d: peak on=%d (epochs=%d diffs=%d ivs=%d notices=%d)",
				kind, iters, gc.Stats.MetaBytesPeak, gc.Stats.GCEpochs,
				gc.Stats.GCDiffsPruned, gc.Stats.GCIntervalsPruned, gc.Stats.GCNoticesPruned)
		}
		// Unbounded growth without GC: quadrupling the iterations must at
		// least double the metadata peak.
		if off[2] < 2*off[0] {
			t.Errorf("%s: GC-off metadata did not grow across the ladder: %v (weak scenario)", kind, off)
		}
		// Plateau with GC: quadrupling the iterations past the ramp moves
		// the peak by at most 1/8 (measured: exactly flat).
		if on[2] > on[0]*9/8 {
			t.Errorf("%s: GC-on metadata kept growing: %v (ladder %v)", kind, on, onLadder)
		}
		// Contrast at the shared rung: GC holds the 16-iteration peak to a
		// fraction of the unbounded baseline.
		if 3*on[0] > off[2] {
			t.Errorf("%s: GC-on peak %d not well under GC-off peak %d at iters=16", kind, on[0], off[2])
		}
		if last.GCEpochs == 0 || last.GCDiffsPruned == 0 ||
			last.GCIntervalsPruned == 0 || last.GCNoticesPruned == 0 {
			t.Errorf("%s: GC fired but pruned nothing: epochs=%d diffs=%d ivs=%d notices=%d",
				kind, last.GCEpochs, last.GCDiffsPruned, last.GCIntervalsPruned, last.GCNoticesPruned)
		}
	}

	// Home-based LRC needs no GC epochs (the reason Validate rejects MetaGC
	// with it): an interval's diffs are gone once flushed to their homes — a
	// home's own writes never make one — and every barrier drops the interval
	// records of the epoch before last and all but the newest notice per
	// writer up to it (tmk's endEpoch). The peak is flat in run length.
	var hlrc []int64
	for _, iters := range []int{8, 16, 32} {
		res, err := VerifiedRun(jacobi(iters), 4, tmk.TransportRDMAGM, func(cfg *tmk.Config) { cfg.Seed = 1 })
		if err != nil {
			t.Fatalf("rdmagm iters=%d: %v", iters, err)
		}
		hlrc = append(hlrc, res.Stats.MetaBytesPeak)
	}
	t.Logf("rdmagm iters=8/16/32: peak %v", hlrc)
	if hlrc[2] > hlrc[0]*9/8 {
		t.Errorf("rdmagm: home-based metadata kept growing: %v over iters 8/16/32", hlrc)
	}
}

// TestIncastStorm64 drives the acceptance scenario: the default 64-node
// incast storm on all three substrates, every invariant enforced by the
// driver itself.
func TestIncastStorm64(t *testing.T) {
	if err := Incast(io.Discard, DefaultIncastSpec()); err != nil {
		t.Fatal(err)
	}
}
