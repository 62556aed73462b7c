package tmk_test

import (
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
// of all four applications, homeless and home-based, on every rank, it
// equals the full scan it replaced. Home-based runs prune — endEpoch's
// pruneThrough and keepNewest, closeInterval's dropDiff — so there the
// gauge must also be seen to fall, or the decrementing side went
// unchecked. (The subtest ids keep their gc=false suffix: metadata is
// never garbage-collected.)
func TestIncrementalGaugeEqualsFullScan(t *testing.T) {
	for _, app := range gaugeApps() {
		for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportRDMAGM} {
			t.Run(fmt.Sprintf("%s/%s/gc=false", app.Name(), kind), func(t *testing.T) {
				var checks tmk.GaugeChecks
				res, err := tmk.Run(tmk.DefaultConfig(4, kind), func(tp *tmk.Proc) {
					tp.CheckMetaGauge(t.Errorf, &checks)
					app.Run(tp)
				})
				if err != nil {
					t.Fatal(err)
				}
				if int64(checks.Comparisons) < res.Stats.Barriers {
					t.Errorf("%d comparisons for %d barrier crossings", checks.Comparisons, res.Stats.Barriers)
				}
				if kind == tmk.TransportRDMAGM && checks.Falls == 0 {
					t.Errorf("the gauge never fell in %d comparisons: the pruning side of the counters went unchecked", checks.Comparisons)
				}
			})
		}
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
