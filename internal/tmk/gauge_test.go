package tmk_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func gaugeApps() []apps.App {
	return []apps.App{
		&apps.Jacobi{N: 64, Iters: 6, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
}

// TestIncrementalGaugeEqualsFullScan: the metadata gauge every barrier
// reads is three counters kept where diffs, interval records and notices
// are added and pruned. At every barrier (and every other masked section)
// of all four applications, homeless and home-based, metadata GC off and
// on, on every rank, it equals the full scan it replaced.
func TestIncrementalGaugeEqualsFullScan(t *testing.T) {
	for _, app := range gaugeApps() {
		for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportRDMAGM} {
			for _, gc := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/gc=%v", app.Name(), kind, gc), func(t *testing.T) {
					cfg := tmk.DefaultConfig(4, kind)
					if gc {
						cfg.MetaGC = 2 << 10
					}
					checks := 0
					res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
						tp.CheckMetaGauge(t.Errorf, &checks)
						app.Run(tp)
					})
					if gc && cfg.HomeBased {
						// Not a legal run: home-based LRC retains nothing to collect.
						var invalid *tmk.ConfigError
						if !errors.As(err, &invalid) {
							t.Fatalf("MetaGC on a home-based run: %v, want a ConfigError", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if int64(checks) < res.Stats.Barriers {
						t.Errorf("%d comparisons for %d barrier crossings", checks, res.Stats.Barriers)
					}
					if gc && app.Name() != "tsp" && res.Stats.GCEpochs == 0 {
						t.Error("metadata GC never ran: the pruning side of the counters went unchecked")
					}
				})
			}
		}
	}
}

// TestGaugeSurvivesRestore: the generation a restart launches builds its
// pages, notices, intervals and diffs through the same counted paths as
// the first, so its gauge equals the scan from its first barrier on.
func TestGaugeSurvivesRestore(t *testing.T) {
	cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
	cfg.Crash = tmk.CrashConfig{Rank: 1, AtBarrier: 6, Restart: true}
	checks, restarted := 0, 0
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		tp.CheckMetaGauge(t.Errorf, &checks)
		if tp.Generation() > 0 {
			restarted++
		}
		(&apps.Jacobi{N: 64, Iters: 6, CostPerPoint: 30 * sim.Nanosecond}).Run(tp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crash == nil || res.Crash.Action != "restart" || restarted != 4 {
		t.Fatalf("no restart (report %v, %d restarted ranks): nothing was tested", res.Crash, restarted)
	}
}

// TestSpanReadIntoStorageAllocatesNothing: the per-row access of every
// grid application, on pages that are valid, is free of the host heap.
func TestSpanReadIntoStorageAllocatesNothing(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		const n = 3 * tmk.PageSize / 8
		r := tp.AllocShared(n * 8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		tp.WriteF64Span(r, 0, vals)
		row := make([]float64, n-7)
		if a := testing.AllocsPerRun(50, func() { tp.ReadF64Span(r, 5, row) }); a != 0 {
			t.Errorf("ReadF64Span into caller storage: %v allocations per call, want 0", a)
		}
		if row[0] != 5 || row[len(row)-1] != float64(n-3) {
			t.Errorf("span = [%v … %v], want [5 … %v]", row[0], row[len(row)-1], n-3)
		}
		if a := testing.AllocsPerRun(50, func() { tp.WriteF64Span(r, 5, row) }); a != 0 {
			t.Errorf("WriteF64Span into a writable page: %v allocations per call, want 0", a)
		}
	})
}
