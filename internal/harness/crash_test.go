package harness

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestCrashSweep is the crash-tolerance end-to-end gate: a rank death on
// all three substrates, with every invariant (restart bit-correct for a
// barrier and a lock app, abort post-mortem names the blocking entity,
// determinism) checked by CrashSweep itself.
func TestCrashSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := CrashSweep(&buf, DefaultCrashSpec()); err != nil {
		t.Fatalf("crash sweep failed: %v\noutput so far:\n%s", err, buf.String())
	}
	if buf.Len() == 0 {
		t.Error("sweep produced no report")
	}
}

// TestCrashSweepDeterministic: the sweep's own report (times, counters)
// must reproduce exactly under the same spec.
func TestCrashSweepDeterministic(t *testing.T) {
	spec := DefaultCrashSpec()
	var a, b bytes.Buffer
	if err := CrashSweep(&a, spec); err != nil {
		t.Fatal(err)
	}
	if err := CrashSweep(&b, spec); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("crash sweep not deterministic:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

// TestHomeBasedRestartVerifies: rank 1 of a home-based Jacobi dies
// entering the sixth sweep's barrier and the run restarts. A restart is the
// run started again, so the new generation's ranks home their own blocks
// again, and every home's window starts from zeros: a rank that took a
// stale copy for the master copy of a page it homes (a home never fetches)
// would fail the verification, which Jacobi, rewriting whole rows, could
// otherwise paper over.
func TestHomeBasedRestartVerifies(t *testing.T) {
	app := &apps.Jacobi{N: 64, Iters: 8, CostPerPoint: 30 * sim.Nanosecond}
	crashed, err := VerifiedRun(app, 4, tmk.TransportRDMAGM, func(cfg *tmk.Config) {
		cfg.Crash = tmk.CrashConfig{Rank: 1, AtBarrier: 7, Restart: true}
	})
	if err != nil {
		t.Fatalf("crash-restart on a home-based run: %v", err)
	}
	if crashed.Crash == nil || crashed.Crash.Action != "restart" {
		t.Fatalf("no restart (report: %v)", crashed.Crash)
	}
}
