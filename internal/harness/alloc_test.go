package harness

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// allocWorkloads mirrors the benchmark's six workloads (benchmark/
// workloads.go, package main): the same application, size, node count,
// substrate and seed, with the host budget each untraced run must stay
// under — about 10 % above its measured count and bytes, which repeat run
// to run.
var allocWorkloads = []struct {
	name   string
	app    func() apps.App
	nodes  int
	kind   tmk.TransportKind
	allocs uint64
	bytes  uint64
}{
	{"jacobi_fastgm_16", func() apps.App { return &apps.Jacobi{N: 640, Iters: 10, CostPerPoint: 120 * sim.Nanosecond} },
		16, tmk.TransportFastGM, 24_100, 41_700_000},
	{"fft3d_udpgm_8", fft64, 8, tmk.TransportUDPGM, 15_600, 139_600_000},
	{"fft3d_fastgm_8", fft64, 8, tmk.TransportFastGM, 15_000, 141_000_000},
	{"tsp_fastgm_8", func() apps.App { return &apps.TSP{Cities: 13, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond} },
		8, tmk.TransportFastGM, 13_650, 3_100_000},
	{"sor_rdmagm_4", sor256, 4, tmk.TransportRDMAGM, 9_300, 10_100_000},
	{"sor_fastgm_4", sor256, 4, tmk.TransportFastGM, 5_200, 5_150_000},
}

func fft64() apps.App { return &apps.FFT3D{Z: 64, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond} }

func sor256() apps.App {
	return &apps.SOR{M: 256, N: 128, Iters: 5, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond}
}

// TestWorkloadAllocationBudgets is the host-clock claim of every benchmark
// row as a tier-1 test: one untraced run of each configuration stays under
// its allocation count and byte budget. Nothing below tmk allocates per
// message (recycled events, packets, send and receive records, datagrams),
// so what is left is tmk's own and the applications'; jacobi_fastgm_16
// made 174,172 allocations while every message allocated ~18 objects,
// 70,708 while every cold read fault fetched a whole page, ~60,000
// (fft3d_*_8 ~53,000) while a homeless span faulted one page at a time, and
// 55,877 (fft3d_*_8 ~31,500, 139 MB) while every kept diff, decoded list and
// interval record was an object of its own, every never-stored page's twin
// a copy of zeros and every page's metadata n ranks wide, and 31,170 while
// its first sweep asked rank 0 for one page's diffs per request.
func TestWorkloadAllocationBudgets(t *testing.T) {
	for _, w := range allocWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunApp(w.app(), w.nodes, w.kind, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			n, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			t.Logf("%d allocations, %.1f MB", n, float64(bytes)/1e6)
			if n > w.allocs {
				t.Errorf("%d allocations, budget %d", n, w.allocs)
			}
			if bytes > w.bytes {
				t.Errorf("%d bytes allocated, budget %d", bytes, w.bytes)
			}
		})
	}
}
