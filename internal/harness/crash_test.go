package harness

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestCrashSweep is the crash-tolerance tentpole's end-to-end gate: a
// rank death on both transports, with every invariant (restart
// bit-correct, abort post-mortem names the blocking entity, determinism)
// checked by CrashSweep itself.
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

// TestCheckpointCarriesPlacement: on rdmagm a checkpoint must carry the
// migrated home table. Jacobi's ranks become home of their own rows at the
// third and fourth sweeps' barriers; rank 1 then dies entering the release
// fence of the fourth sweep's checkpoint. A generation restored onto the
// static pg mod n table would take the stale copy at a page's old home for
// the master copy (a home never fetches) — Jacobi, which rewrites whole
// rows, would paper over that, so the test also holds the restart to moving
// no home a second time. The snapshots of an uncrashed checkpointing run
// stay byte-deterministic with the tables in.
func TestCheckpointCarriesPlacement(t *testing.T) {
	app := &apps.Jacobi{N: 64, Iters: 8, CostPerPoint: 30 * sim.Nanosecond}
	res, err := VerifiedRun(app, 4, tmk.TransportRDMAGM, func(cfg *tmk.Config) {
		cfg.Crash = tmk.CrashConfig{Rank: 1, AtBarrier: 15, Checkpoint: true}
	})
	if err != nil {
		t.Fatalf("crash-restart after migration: %v", err)
	}
	if res.Crash == nil || res.Crash.Action != "restart" {
		t.Fatalf("no restart (report: %v)", res.Crash)
	}

	run := func() (*tmk.Cluster, *tmk.Result) {
		cfg := tmk.DefaultConfig(4, tmk.TransportRDMAGM)
		cfg.Crash.Checkpoint = true
		c := tmk.NewCluster(cfg)
		r, err := c.Run(app.Run)
		if err != nil {
			t.Fatal(err)
		}
		return c, r
	}
	c1, r1 := run()
	c2, _ := run()
	if r1.Stats.HomeMoves == 0 {
		t.Fatal("no home moved: the snapshots carry no placement to compare")
	}
	// Every move of the uncrashed run happens before the crash point, so a
	// restart that re-derived the table from scratch would have moved again.
	if res.Stats.HomeMoves != r1.Stats.HomeMoves {
		t.Errorf("crashed run moved %d homes across its generations, the uncrashed run %d",
			res.Stats.HomeMoves, r1.Stats.HomeMoves)
	}
	for e := 0; e <= app.Iters; e++ {
		for rank := 0; rank < 4; rank++ {
			s1, s2 := c1.Snapshot(e, rank), c2.Snapshot(e, rank)
			if s1 == nil || !bytes.Equal(s1, s2) {
				t.Fatalf("checkpoint (epoch %d, rank %d): %d vs %d bytes, differing or missing", e, rank, len(s1), len(s2))
			}
		}
	}
}
