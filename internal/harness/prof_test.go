package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// profTracer returns a tracer with pf subscribed: how a run is profiled.
func profTracer(pf *prof.Profiler) *trace.Tracer {
	tr := trace.New(0)
	tr.Subscribe(pf.Observe)
	return tr
}

// profRun executes body on n fastgm processes with a profiler attached
// and returns its snapshot.
func profRun(t *testing.T, n int, body func(tp *tmk.Proc)) *prof.Profile {
	t.Helper()
	cfg := tmk.DefaultConfig(n, tmk.TransportFastGM)
	pf := prof.New()
	cfg.Trace = profTracer(pf)
	if _, err := tmk.Run(cfg, body); err != nil {
		t.Fatal(err)
	}
	return pf.Snapshot()
}

// TestProfFalseSharingScore crafts the canonical false-sharing pattern:
// two ranks repeatedly writing disjoint halves of the same page. The
// profiler must see two writers on that page and a nonzero score from
// the cross-writer notices.
func TestProfFalseSharingScore(t *testing.T) {
	pr := profRun(t, 2, func(tp *tmk.Proc) {
		r := tp.AllocShared(tmk.PageSize)
		tp.Barrier(1)
		for it := 0; it < 4; it++ {
			for i := 0; i < 8; i++ {
				tp.WriteF64(r, tp.Rank()*64+i, float64(it*100+i))
			}
			tp.Barrier(int32(10 + it))
		}
	})
	var hot *prof.PageRow
	for i := range pr.Pages {
		if pr.Pages[i].Writers >= 2 {
			hot = &pr.Pages[i]
			break
		}
	}
	if hot == nil {
		t.Fatalf("no multi-writer page found: %+v", pr.Pages)
	}
	if hot.FalseShareNotices == 0 || hot.FalseSharingScore <= 0 {
		t.Fatalf("hot page has no false-sharing signal: %+v", hot)
	}
	if hot.DiffsCreated == 0 {
		t.Fatalf("multi-writer page created no diffs: %+v", hot)
	}
}

// TestProfContendedLockWait crafts a contended lock whose wait time the
// profiler must attribute: rank 1 (the manager of lock 5 on 2 procs)
// holds the lock through a long critical section while rank 0, after a
// short head start for the barrier release to settle, blocks on it. The
// measured wait must be within the critical section's length (minus the
// head start) and the hold must cover the critical section.
func TestProfContendedLockWait(t *testing.T) {
	const crit = 10 * sim.Millisecond
	const lead = 1 * sim.Millisecond
	pr := profRun(t, 2, func(tp *tmk.Proc) {
		tp.Barrier(1)
		if tp.Rank() == 1 {
			tp.LockAcquire(5) // manager: free local acquire
			tp.Compute(crit)
			tp.LockRelease(5)
		} else {
			tp.Compute(lead) // let rank 1 take the lock first
			tp.LockAcquire(5)
			tp.LockRelease(5)
		}
		tp.Barrier(2)
	})
	if len(pr.Locks) != 1 {
		t.Fatalf("locks = %+v", pr.Locks)
	}
	l := pr.Locks[0]
	if l.ID != 5 || l.Manager != 1 {
		t.Fatalf("lock identity = %+v", l)
	}
	if l.AcquiresLocal != 1 || l.AcquiresRemote != 1 || l.Holds != 2 {
		t.Fatalf("acquire counts = %+v", l)
	}
	if l.HoldNs < int64(crit) {
		t.Errorf("hold %d ns shorter than the %v critical section", l.HoldNs, crit)
	}
	// Rank 0 waited from its acquire (≈ lead after the barrier) until
	// rank 1's release (≈ crit after it): roughly crit − lead, plus
	// messaging. Anything far outside that is misattribution.
	lo, hi := int64(crit-lead)/2, int64(crit+2*sim.Millisecond)
	if l.WaitNs < lo || l.WaitNs > hi {
		t.Errorf("wait %d ns outside [%d, %d] for a %v critical section", l.WaitNs, lo, hi, crit)
	}
}

// TestProfBarrierSkewMatchesImbalance injects a known compute imbalance
// before a barrier and checks the episode's arrival skew reflects it.
func TestProfBarrierSkewMatchesImbalance(t *testing.T) {
	const extra = 5 * sim.Millisecond
	pr := profRun(t, 2, func(tp *tmk.Proc) {
		tp.Barrier(1)
		if tp.Rank() == 1 {
			tp.Compute(extra)
		}
		tp.Barrier(7)
	})
	var row *prof.BarrierRow
	for i := range pr.Barriers {
		if pr.Barriers[i].ID == 7 {
			row = &pr.Barriers[i]
		}
	}
	if row == nil {
		t.Fatalf("barrier 7 not profiled: %+v", pr.Barriers)
	}
	// Skew = extra plus the (sub-ms) barrier-release offset between ranks.
	lo, hi := int64(extra), int64(extra+2*sim.Millisecond)
	if row.SkewMaxNs < lo || row.SkewMaxNs > hi {
		t.Errorf("skew %d ns outside [%d, %d] for %v injected imbalance", row.SkewMaxNs, lo, hi, extra)
	}
}

// TestProfilingDoesNotPerturbResults is the profiler's central
// invariant, mirroring TestTracingDoesNotPerturbResults: attaching the
// entity profiler is pure observation — virtual end times and every
// counter stay bit-identical.
func TestProfilingDoesNotPerturbResults(t *testing.T) {
	cases := []apps.App{
		&apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
	for _, app := range cases {
		for _, kind := range Transports {
			for _, n := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/%dp", app.Name(), kind, n)
				t.Run(name, func(t *testing.T) {
					plain, err := RunApp(app, n, kind, nil)
					if err != nil {
						t.Fatal(err)
					}
					pf := prof.New()
					profiled, err := RunApp(app, n, kind, func(cfg *tmk.Config) {
						cfg.Trace = profTracer(pf)
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(pf.Snapshot().Pages) == 0 {
						t.Fatal("profiler attached but recorded no pages")
					}
					if plain.ExecTime != profiled.ExecTime {
						t.Errorf("ExecTime diverged: plain %v profiled %v", plain.ExecTime, profiled.ExecTime)
					}
					if plain.Stats != profiled.Stats {
						t.Errorf("tmk.Stats diverged:\nplain    %+v\nprofiled %+v", plain.Stats, profiled.Stats)
					}
					if plain.Transport != profiled.Transport {
						t.Errorf("substrate.Stats diverged:\nplain    %+v\nprofiled %+v", plain.Transport, profiled.Transport)
					}
					for i := range plain.PerProc {
						if plain.PerProc[i] != profiled.PerProc[i] {
							t.Errorf("rank %d time diverged: plain %v profiled %v", i, plain.PerProc[i], profiled.PerProc[i])
						}
					}
				})
			}
		}
	}
}

// TestProfEntitiesSmoke profiles every application at its smallest
// Table 1 size on 4 nodes over both two-sided transports and checks each
// yields a populated profile, with lock attribution present exactly where
// the apps use locks (sor, tsp) and absent where they are barrier-only.
func TestProfEntitiesSmoke(t *testing.T) {
	for _, name := range AppNames {
		app := SizeLadder(name)[0]
		for _, kind := range Transports {
			pf := prof.New()
			res, err := RunApp(app, 4, kind, func(cfg *tmk.Config) { cfg.Trace = profTracer(pf) })
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			pr := LabelProfile(pf, app.Name(), app.Size(), kind, 4, res)
			if len(pr.Pages) == 0 {
				t.Errorf("%s/%s: no page attribution", name, kind)
			}
			if pr.ExecNs <= 0 {
				t.Errorf("%s/%s: no exec time", name, kind)
			}
			hasLocks := len(pr.Locks) > 0
			wantLocks := name == "sor" || name == "tsp"
			if hasLocks != wantLocks {
				t.Errorf("%s/%s: lock attribution = %v, want %v", name, kind, hasLocks, wantLocks)
			}
			if len(pr.Barriers) == 0 {
				t.Errorf("%s/%s: no barrier attribution", name, kind)
			}
		}
	}
}
