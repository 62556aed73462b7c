package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// workload is one whole-application row of the benchmark: an application
// at a fixed size on a fixed cluster. Everything not named here is
// tmk.DefaultConfig(nodes, kind); the only input is the seed.
type workload struct {
	name  string
	desc  string // application and size, for the report header
	app   func() apps.App
	nodes int
	kind  tmk.TransportKind
	reps  int // timed reps when no -seconds window is given
}

// Cost constants are the harness size ladder's (harness.SizeLadder).
const (
	jacobiPoint  = 120 * sim.Nanosecond
	sorPoint     = 140 * sim.Nanosecond
	tspNode      = 40 * sim.Nanosecond
	fftButterfly = 180 * sim.Nanosecond
)

func jacobi640() apps.App { return &apps.Jacobi{N: 640, Iters: 10, CostPerPoint: jacobiPoint} }
func fft64() apps.App     { return &apps.FFT3D{Z: 64, Iters: 3, CostPerButterfly: fftButterfly} }
func tsp13() apps.App     { return &apps.TSP{Cities: 13, PrefixDepth: 3, CostPerNode: tspNode} }

// sor256 runs 5 iterations, not the ladder's 10: the verified warm-up's
// result gather must stay under the 32 KB diff-reply cap on fastgm.
func sor256() apps.App {
	return &apps.SOR{M: 256, N: 128, Iters: 5, Omega: 1.25, CostPerPoint: sorPoint}
}

// workloads is the benchmark. Names, sizes and rep counts are constants:
// a change that claims a gain may not edit them (README.md). The reasons
// for each row are in BENCHMARK.json and README.md.
var workloads = []workload{
	{"jacobi_fastgm_16", "apps.Jacobi{N:640, Iters:10}", jacobi640, 16, tmk.TransportFastGM, 25},
	{"fft3d_udpgm_8", "apps.FFT3D{Z:64, Iters:3}", fft64, 8, tmk.TransportUDPGM, 12},
	{"fft3d_fastgm_8", "apps.FFT3D{Z:64, Iters:3}", fft64, 8, tmk.TransportFastGM, 12},
	{"tsp_fastgm_8", "apps.TSP{Cities:13, PrefixDepth:3}", tsp13, 8, tmk.TransportFastGM, 16},
	{"sor_rdmagm_4", "apps.SOR{M:256, N:128, Iters:5}", sor256, 4, tmk.TransportRDMAGM, 5},
	{"sor_fastgm_4", "apps.SOR{M:256, N:128, Iters:5}", sor256, 4, tmk.TransportFastGM, 150},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the cluster configuration of every multi-node run of w.
func (w workload) config(seed int64) tmk.Config {
	cfg := tmk.DefaultConfig(w.nodes, w.kind)
	cfg.Seed = seed
	return cfg
}

// header describes the row for the report.
func (w workload) header() string {
	proto := "homeless LRC"
	if w.config(0).HomeBased {
		proto = "home-based LRC"
	}
	return fmt.Sprintf("%s — %s · %d nodes · %s · %s", w.name, w.desc, w.nodes, w.kind, proto)
}
