package harness

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestJacobi16AllocationBudget is the host-clock claim of the benchmark's
// jacobi_fastgm_16 row as a tier-1 test: one untraced run of that
// configuration stays under 200,000 heap allocations (637,477 before the
// simulator's switch, tmk's page metadata and the span accessors stopped
// allocating) and 125 MB allocated (220 MB while every rank backed every
// page of every region and GM every registered byte). The count repeats to
// within a few between runs, the bytes to the kilobyte.
func TestJacobi16AllocationBudget(t *testing.T) {
	app := &apps.Jacobi{N: 640, Iters: 10, CostPerPoint: 120 * sim.Nanosecond}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunApp(app, 16, tmk.TransportFastGM, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget, bytesBudget = 200_000, 125_000_000
	n, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %.1f MB", n, float64(bytes)/1e6)
	if n > budget {
		t.Errorf("jacobi 640×10 on 16 fastgm nodes: %d allocations, budget %d", n, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("jacobi 640×10 on 16 fastgm nodes: %d bytes allocated, budget %d", bytes, bytesBudget)
	}
}
