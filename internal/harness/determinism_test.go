package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// TestTracingDoesNotPerturbResults is the tracing subsystem's central
// invariant: attaching a tracer is pure observation. Every application ×
// transport × node-count combination must produce bit-identical virtual
// end times and protocol/transport counters with tracing on and off.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	apps := []apps.App{
		&apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
	for _, app := range apps {
		for _, kind := range Transports {
			for _, n := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/%dp", app.Name(), kind, n)
				t.Run(name, func(t *testing.T) {
					plain, err := RunApp(app, n, kind, nil)
					if err != nil {
						t.Fatal(err)
					}
					tracer := trace.New(1 << 12) // small ring: wraps, must not matter
					traced, err := RunApp(app, n, kind, func(cfg *tmk.Config) {
						cfg.Trace = tracer
					})
					if err != nil {
						t.Fatal(err)
					}
					if tracer.Len() == 0 {
						t.Fatal("tracer attached but recorded nothing")
					}
					if plain.ExecTime != traced.ExecTime {
						t.Errorf("ExecTime diverged: plain %v traced %v", plain.ExecTime, traced.ExecTime)
					}
					if plain.Stats != traced.Stats {
						t.Errorf("tmk.Stats diverged:\nplain  %+v\ntraced %+v", plain.Stats, traced.Stats)
					}
					if plain.Transport != traced.Transport {
						t.Errorf("substrate.Stats diverged:\nplain  %+v\ntraced %+v", plain.Transport, traced.Transport)
					}
					for i := range plain.PerProc {
						if plain.PerProc[i] != traced.PerProc[i] {
							t.Errorf("rank %d time diverged: plain %v traced %v", i, plain.PerProc[i], traced.PerProc[i])
						}
					}
				})
			}
		}
	}
}

// TestZeroFaultConfigIsBitIdentical is the fault-injection layer's
// central invariant: a fault configuration whose every probability is
// zero must be pure plumbing. Two variants are checked against a plain
// run — the empty config (the injector is never consulted at all) and a
// zero-width blackout window (the injector IS consulted per packet, stamps
// CRCs, but draws no randomness and changes no event) — both must be
// bit-identical in timings and every counter.
func TestZeroFaultConfigIsBitIdentical(t *testing.T) {
	variants := []struct {
		name   string
		faults myrinet.FaultConfig
	}{
		{"empty-config", myrinet.FaultConfig{}},
		{"zero-width-blackout", myrinet.FaultConfig{Blackouts: []myrinet.Blackout{{Src: -1, Dst: -1}}}},
	}
	app := &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	for _, kind := range Transports {
		plain, err := RunApp(app, 4, kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", kind, v.name), func(t *testing.T) {
				faulted, err := RunApp(app, 4, kind, func(cfg *tmk.Config) {
					cfg.Faults = v.faults
				})
				if err != nil {
					t.Fatal(err)
				}
				if plain.ExecTime != faulted.ExecTime {
					t.Errorf("ExecTime diverged: plain %v faulted %v", plain.ExecTime, faulted.ExecTime)
				}
				if plain.Stats != faulted.Stats {
					t.Errorf("tmk.Stats diverged:\nplain   %+v\nfaulted %+v", plain.Stats, faulted.Stats)
				}
				if plain.Transport != faulted.Transport {
					t.Errorf("substrate.Stats diverged:\nplain   %+v\nfaulted %+v", plain.Transport, faulted.Transport)
				}
				for i := range plain.PerProc {
					if plain.PerProc[i] != faulted.PerProc[i] {
						t.Errorf("rank %d time diverged: plain %v faulted %v", i, plain.PerProc[i], faulted.PerProc[i])
					}
				}
				if nf := faulted.NetFaults; nf != (myrinet.FaultStats{}) {
					t.Errorf("zero-probability config injected faults: %+v", nf)
				}
			})
		}
	}
}
