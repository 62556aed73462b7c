package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Crash sweep: inject a rank death into running applications on all three
// substrates and hold the crash-tolerance story to its invariants:
//
//  1. Restart: with CrashConfig.Restart any application survives the
//     death — the survivors detect it, the watchdog runs the application
//     again from its first line on a fresh generation, and the final answer
//     verifies bit-exact against the sequential reference. Barrier-structured
//     Jacobi and lock-structured TSP both must.
//  2. Abort: without Restart the death ends in a coordinated abort whose
//     post-mortem names the dead rank and the protocol entity every
//     survivor was blocked on. No hangs.
//  3. Determinism: the same restart replays to identical results.

// CrashSpec configures the crash sweep.
type CrashSpec struct {
	Nodes int
	Seed  int64
}

// DefaultCrashSpec returns the standard scenario set.
func DefaultCrashSpec() CrashSpec {
	return CrashSpec{Nodes: 4, Seed: 1}
}

// CrashSweep runs the sweep and writes a report. It returns an error on
// the first violated invariant.
func CrashSweep(w io.Writer, spec CrashSpec) error {
	fprintf(w, "Crash sweep: %d nodes, seed %d — rank 1 dies mid-run\n\n", spec.Nodes, spec.Seed)
	fprintf(w, "%-8s %-7s %-8s %12s %5s %7s %5s %6s\n",
		"app", "tport", "action", "time", "gens", "hbsent", "dead", "abndn")
	with := func(cc tmk.CrashConfig) func(*tmk.Config) {
		return func(cfg *tmk.Config) { cfg.Seed, cfg.Crash = spec.Seed, cc }
	}
	jacobi := &apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond}
	tsp := &apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond}

	// Invariant 1: restart. Rank 1 dies entering Jacobi's second sweep
	// barrier, or its second TSP lock acquire.
	for _, sc := range []struct {
		app apps.App
		cc  tmk.CrashConfig
	}{
		{jacobi, tmk.CrashConfig{Rank: 1, AtBarrier: 3, Restart: true}},
		{tsp, tmk.CrashConfig{Rank: 1, AtLock: 2, Restart: true}},
	} {
		for _, kind := range AllTransports {
			res, err := VerifiedRun(sc.app, spec.Nodes, kind, with(sc.cc))
			if err != nil {
				return fmt.Errorf("crash: %s/%s: restart scenario failed: %w", sc.app.Name(), kind, err)
			}
			rep := res.Crash
			if rep == nil || rep.Action != "restart" {
				return fmt.Errorf("crash: %s/%s: no restart (report: %v)", sc.app.Name(), kind, rep)
			}
			if res.Transport.PeersDeclaredDead == 0 {
				return fmt.Errorf("crash: %s/%s: recovery left no trace (no peer declared dead)", sc.app.Name(), kind)
			}
			writeCrashRow(w, sc.app.Name(), kind, res)

			// Invariant 3: the same death replays to identical results.
			again, err := VerifiedRun(sc.app, spec.Nodes, kind, with(sc.cc))
			if err != nil {
				return fmt.Errorf("crash: %s/%s: replay failed: %w", sc.app.Name(), kind, err)
			}
			if err := sameResult(res, again); err != nil {
				return fmt.Errorf("crash: %s/%s: recovery not deterministic: %w", sc.app.Name(), kind, err)
			}
		}
	}

	// Invariant 2: coordinated abort with post-mortem. Without Restart the
	// run must die cleanly, naming the dead rank and what each survivor
	// was blocked on.
	abort := tmk.CrashConfig{Rank: 1, AtLock: 2}
	for _, kind := range AllTransports {
		res, err := VerifiedRun(tsp, spec.Nodes, kind, with(abort))
		var ae *tmk.CrashAbortError
		if !errors.As(err, &ae) {
			return fmt.Errorf("crash: %s/%s: want coordinated abort, got err=%v", tsp.Name(), kind, err)
		}
		rep := ae.Report
		if rep.DeadRank != 1 || rep.Action != "abort" {
			return fmt.Errorf("crash: %s/%s: bad post-mortem:\n%s", tsp.Name(), kind, rep)
		}
		text := rep.String()
		if !strings.Contains(text, "lock") && !strings.Contains(text, "barrier") && !strings.Contains(text, "page") {
			return fmt.Errorf("crash: %s/%s: post-mortem names no blocking protocol entity:\n%s",
				tsp.Name(), kind, text)
		}
		writeCrashRow(w, tsp.Name(), kind, res)
	}

	fprintf(w, "\nall invariants held: restarts bit-correct for barrier and lock apps, aborts name the\n")
	fprintf(w, "dead rank and blocking entity, recovery deterministic\n")
	return nil
}

func writeCrashRow(w io.Writer, name string, kind tmk.TransportKind, res *tmk.Result) {
	rep := res.Crash
	fprintf(w, "%-8s %-7s %-8s %12v %5d %7d %5d %6d\n",
		name, kind, rep.Action, res.ExecTime, rep.Generations,
		res.Transport.HeartbeatsSent, res.Transport.PeersDeclaredDead, res.Transport.SendsAbandoned)
}
