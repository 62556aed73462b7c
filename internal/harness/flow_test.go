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

// TestHomeBasedMetadataIsFlat: home-based LRC keeps its protocol metadata
// flat in run length. An interval's diffs are gone once flushed to their
// homes — a home's own writes never make one — and every barrier drops the
// interval records of the epoch before last and all but the newest notice
// per writer up to it (tmk's endEpoch). Quadrupling Jacobi's iterations
// moves the metadata peak by at most 1/8 (measured: exactly flat).
func TestHomeBasedMetadataIsFlat(t *testing.T) {
	var hlrc []int64
	for _, iters := range []int{8, 16, 32} {
		app := &apps.Jacobi{N: 64, Iters: iters, CostPerPoint: 30 * sim.Nanosecond}
		res, err := VerifiedRun(app, 4, tmk.TransportRDMAGM, func(cfg *tmk.Config) { cfg.Seed = 1 })
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
