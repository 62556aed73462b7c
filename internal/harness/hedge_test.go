package harness

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestHedgeUnderChaosDeterminism: hedging armed on a lossy fabric. Hedged
// duplicates ride the (origin, seq) duplicate filter — and the whole stack
// must stay a deterministic function of the seed: the same configuration
// twice is bit-identical, and every application still verifies against
// its sequential reference.
func TestHedgeUnderChaosDeterminism(t *testing.T) {
	spec := DefaultChaosSpec()
	mutate := func(cfg *tmk.Config) {
		spec.Mutate(cfg)
		cfg.Hedge = true
	}
	var hedged, rdmaPuts, rdmaRetx int64
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
				t.Errorf("%s/%s: hedge under chaos not deterministic: %v", app.Name(), kind, err)
			}
			if a.DisabledPorts != 0 {
				t.Errorf("%s/%s: %d GM ports left disabled", app.Name(), kind, a.DisabledPorts)
			}
			hedged += a.Transport.HedgedRequests
			if kind == tmk.TransportRDMAGM {
				rdmaPuts += a.Transport.OneSidedPuts
				rdmaRetx += a.Transport.Retransmits
			}
		}
	}
	t.Logf("%d hedged requests; rdmagm posted %d puts and retransmitted %d frames", hedged, rdmaPuts, rdmaRetx)
	if hedged == 0 {
		t.Error("no hedged request fired anywhere in the chaos sweep; weak test")
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
