package apps_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// runAndVerify executes app on n processes over the given transport and
// checks rank 0's view against the sequential reference.
func runAndVerify(t *testing.T, app apps.App, n int, kind tmk.TransportKind) *tmk.Result {
	t.Helper()
	cfg := tmk.DefaultConfig(n, kind)
	cluster := tmk.NewCluster(cfg)
	errs := make([]error, n)
	res, err := cluster.Run(func(tp *tmk.Proc) {
		app.Run(tp)
		tp.Barrier(2_000_000)
		if tp.Rank() == 0 {
			errs[0] = app.Verify(tp)
		}
	})
	if err != nil {
		t.Fatalf("%s on %d procs (%s): %v", app.Name(), n, kind, err)
	}
	if errs[0] != nil {
		t.Fatalf("%s on %d procs (%s): %v", app.Name(), n, kind, errs[0])
	}
	return res
}

func smallJacobi() *apps.Jacobi {
	return &apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond}
}

func smallSOR() *apps.SOR {
	return &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
}

func smallTSP() *apps.TSP {
	return &apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond}
}

func smallFFT() *apps.FFT3D {
	return &apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond}
}

func smallApps() []apps.App {
	return []apps.App{smallJacobi(), smallSOR(), smallTSP(), smallFFT()}
}

func TestAppsMatchSequentialFastGM(t *testing.T) {
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				runAndVerify(t, app, n, tmk.TransportFastGM)
			}
		})
	}
}

func TestAppsMatchSequentialUDPGM(t *testing.T) {
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			runAndVerify(t, app, 4, tmk.TransportUDPGM)
		})
	}
}

func TestAppsEightProcs(t *testing.T) {
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			runAndVerify(t, app, 8, tmk.TransportFastGM)
		})
	}
}

func TestAppsWithRendezvous(t *testing.T) {
	cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
	cfg.Rendezvous = true
	app := smallJacobi()
	cluster := tmk.NewCluster(cfg)
	var verr error
	_, err := cluster.Run(func(tp *tmk.Proc) {
		app.Run(tp)
		tp.Barrier(2_000_000)
		if tp.Rank() == 0 {
			verr = app.Verify(tp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr != nil {
		t.Fatal(verr)
	}
}

func TestTSPSequentialSanity(t *testing.T) {
	ts := smallTSP()
	best, err := ts.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 || best >= 1<<30 {
		t.Errorf("sequential best = %d", best)
	}
	// The optimal closed tour over k cities cannot be shorter than k×min
	// positive edge nor longer than k×max edge — a coarse sanity band.
	if best < int32(ts.Cities) {
		t.Errorf("best %d implausibly small", best)
	}
	// Past what the reference's table holds, Verify's optimum is an error.
	if _, err := (&apps.TSP{Cities: 21}).Sequential(); err == nil {
		t.Error("Sequential solved 21 cities")
	}
}

func TestDefaultsExposeTable1Sizes(t *testing.T) {
	for _, a := range apps.All() {
		if a.Name() == "" || a.Size() == "" {
			t.Errorf("app %T missing metadata", a)
		}
	}
	if apps.ByName("jacobi") == nil || apps.ByName("sor") == nil ||
		apps.ByName("tsp") == nil || apps.ByName("3dfft") == nil {
		t.Error("ByName lookup failed")
	}
	if apps.ByName("nope") != nil {
		t.Error("ByName invented an app")
	}
}

func TestParallelSpeedupExists(t *testing.T) {
	// With FAST/GM, 4 processes must beat 1 process on Jacobi (the
	// highest comp/comm ratio app) at a reasonable size.
	app := &apps.Jacobi{N: 256, Iters: 4, CostPerPoint: 120 * sim.Nanosecond}
	r1 := runAndVerify(t, app, 1, tmk.TransportFastGM)
	r4 := runAndVerify(t, app, 4, tmk.TransportFastGM)
	if r4.ExecTime >= r1.ExecTime {
		t.Errorf("no speedup: 1p=%v 4p=%v", r1.ExecTime, r4.ExecTime)
	}
	t.Logf("jacobi 256²: 1p=%v 4p=%v speedup=%.2f",
		r1.ExecTime, r4.ExecTime, float64(r1.ExecTime)/float64(r4.ExecTime))
}
