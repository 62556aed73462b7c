package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestFeatureMatrix is the compose-or-reject contract (DESIGN.md §16):
// every unordered pair of feature settings — a setting with itself
// included — on every substrate has exactly two legal outcomes. Either
// Config.Validate accepts the pair and the run verifies against the
// sequential reference, or Validate rejects it and Run returns that same
// verdict without spawning anything. A panic or a hang takes the test
// binary down; any other error is the third outcome that fails here. A
// pair that misbehaves gets a Validate rule, not a special case. A verified
// homeless cell fetches no page: a cold homeless page is its diffs, and only
// home-based LRC's Get counts a page fetch.
func TestFeatureMatrix(t *testing.T) {
	settings := []struct {
		name string
		set  func(*tmk.Config)
	}{
		{"tree-barrier", func(c *tmk.Config) { c.BarrierFanout = 2 }},
		{"crash-restart", func(c *tmk.Config) { c.Crash.Rank, c.Crash.AtBarrier, c.Crash.Restart = 1, 3, true }},
		{"restart", func(c *tmk.Config) { c.Crash.Restart = true }},
		// A trigger that never fires (Jacobi takes no lock) arms the failure
		// detector alone.
		{"detector", func(c *tmk.Config) { c.Crash.Rank, c.Crash.AtLock = 1, 1 }},
		{"hedge", func(c *tmk.Config) { c.Hedge = true }},
		{"homeless", func(c *tmk.Config) { c.HomeBased = false }},
		{"rendezvous", func(c *tmk.Config) { c.Rendezvous = true }},
		{"chaos", DefaultChaosSpec().Mutate},
	}
	app := &apps.Jacobi{N: 64, Iters: 6, CostPerPoint: 30 * sim.Nanosecond}
	ran, rejected := 0, 0
	for _, kind := range AllTransports {
		for i, a := range settings {
			for _, b := range settings[i:] {
				name := fmt.Sprintf("%s/%s+%s", kind, a.name, b.name)
				mutate := func(c *tmk.Config) { a.set(c); b.set(c) }
				cfg := tmk.DefaultConfig(4, kind)
				mutate(&cfg)
				verdict := cfg.Validate()
				res, err := VerifiedRun(app, 4, kind, mutate)
				switch {
				case verdict == nil && err == nil:
					ran++
					if !cfg.HomeBased && res.Stats.PageFetches != 0 {
						t.Errorf("%s: a homeless run fetched %d pages", name, res.Stats.PageFetches)
					}
				case verdict != nil && reflect.DeepEqual(err, verdict):
					rejected++
				default:
					t.Errorf("%s: third outcome: Validate says %v, run says %v", name, verdict, err)
				}
			}
		}
	}
	// 8 settings make 36 pairs on each of 3 substrates. The rejected ones
	// are the two trigger settings (crash-restart, detector) with chaos on
	// every substrate, all by liveness-faults.
	t.Logf("%d pairs verified, %d rejected by Validate", ran, rejected)
	if ran != 102 || rejected != 6 {
		t.Errorf("%d pairs verified and %d rejected, want 102 and 6", ran, rejected)
	}
}

// TestHedgeChaosSeedSweepRDMA widens the matrix's rdmagm hedge+chaos cell
// from one seed to sixty. It is the cell where multiplying completion
// retry chains (rdmagm.sendCompletion) starved an unrelated initiator's
// Get into a false "peer unreachable" — on about one seed in sixty, so one
// seed cannot hold the fix.
func TestHedgeChaosSeedSweepRDMA(t *testing.T) {
	if testing.Short() {
		t.Skip("60-seed sweep")
	}
	app := &apps.Jacobi{N: 64, Iters: 6, CostPerPoint: 30 * sim.Nanosecond}
	for seed := int64(1); seed <= 60; seed++ {
		_, err := VerifiedRun(app, 4, tmk.TransportRDMAGM, func(c *tmk.Config) {
			spec := DefaultChaosSpec()
			spec.Seed = seed
			spec.Mutate(c)
			c.Hedge = true
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
