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
		16, tmk.TransportFastGM, 10_600, 38_600_000},
	{"fft3d_udpgm_8", fft64, 8, tmk.TransportUDPGM, 7_800, 111_700_000},
	{"fft3d_fastgm_8", fft64, 8, tmk.TransportFastGM, 7_400, 113_000_000},
	{"tsp_fastgm_8", func() apps.App { return &apps.TSP{Cities: 13, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond} },
		8, tmk.TransportFastGM, 4_870, 2_580_000},
	{"sor_rdmagm_4", sor256, 4, tmk.TransportRDMAGM, 3_950, 6_800_000},
	{"sor_fastgm_4", sor256, 4, tmk.TransportFastGM, 2_100, 4_750_000},
}

func fft64() apps.App { return &apps.FFT3D{Z: 64, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond} }

func sor256() apps.App {
	return &apps.SOR{M: 256, N: 128, Iters: 5, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond}
}

// TestWorkloadAllocationBudgets is the host-clock claim of every benchmark
// row as a tier-1 test: one untraced run of each configuration stays under
// its allocation count and byte budget. A message allocates nothing once
// its endpoint's storage is warm, below tmk (recycled events, packets,
// send and receive records, datagrams) and in the codec and the substrate
// core (recycled calls and decoders, a duplicate filter whose slots own
// their cached replies). What is left per message is the first lap of each
// filter's ring, where every slot grows its reply storage, and reused
// storage growing to the largest message it has held; the rest is set-up
// (registered slabs, ports, conditions) and tmk's own — frames, twins,
// kept diffs, page metadata and the interval log's chunks — and the
// applications'. jacobi_fastgm_16 made 174,172 allocations while every
// message allocated ~18 objects, 70,708 while every cold read fault
// fetched a whole page, ~60,000 (fft3d_*_8 ~53,000) while a homeless span
// faulted one page at a time, 55,877 (fft3d_*_8 ~31,500, 139 MB) while
// every kept diff, decoded list and interval record was an object of its
// own, every never-stored page's twin a copy of zeros and every page's
// metadata n ranks wide, 31,170 while its first sweep asked rank 0 for one
// page's diffs per request, and 21,907 (fft3d_*_8 ~13,700, sor_rdmagm_4
// 7,722) while every message was decoded into memory of its own, encoded
// into a new buffer and recorded in a call and a filter entry of its own.
// tsp_fastgm_8 made 4,680 while every rank built its distance matrix row
// by row and every work unit allocated its own tour prefix, and
// fft3d_fastgm_8 7,610 (124.2 MB) while FFT3D made its transpose blocks
// fresh every iteration, and jacobi_fastgm_16 9,810 (37.2 MB) while every
// write notice travelled as an int32 of its own and a decoder's lists grew
// one exact size at a time.
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

// BenchmarkWorkloads is TestWorkloadAllocationBudgets' six rows on the
// host clock: one untraced run per iteration. `make host-cpu
// WORKLOAD=<name>` profiles one row's CPU with it.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range allocWorkloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunApp(w.app(), w.nodes, w.kind, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadSetup is the benchmark's set-up phase of the same six
// rows, whose host seconds it reports as setup_s: per iteration the 1-node
// FAST/GM baseline, then one run verified against the application's
// sequential reference. `make setup-cpu WORKLOAD=<name>` profiles one
// row's CPU with it.
func BenchmarkWorkloadSetup(b *testing.B) {
	for _, w := range allocWorkloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app := w.app()
				if _, err := RunApp(app, 1, tmk.TransportFastGM, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := VerifiedRun(app, w.nodes, w.kind, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
