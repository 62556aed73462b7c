// Package harness drives the paper's experiments end to end (E0–E5 in
// DESIGN.md) and prints the rows/series of every table and figure in the
// evaluation section: the Section 3.1 latency/bandwidth numbers, the
// Figure 3 microbenchmarks, the Figure 4 system-size sweep, the Table 1 /
// Figure 5 application-size sweep, and the two ablations (asynchronous-
// message schemes and the rendezvous protocol).
package harness

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Transports under comparison, in paper order (baseline first).
var Transports = []tmk.TransportKind{tmk.TransportUDPGM, tmk.TransportFastGM}

// AllTransports lists every substrate, in paper order (baseline first,
// then the two GM-native designs).
var AllTransports = []tmk.TransportKind{
	tmk.TransportUDPGM, tmk.TransportFastGM, tmk.TransportRDMAGM,
}

// RunApp executes one application on n processes over the given
// transport; mutate (optional) tweaks the configuration first.
func RunApp(app apps.App, n int, kind tmk.TransportKind, mutate func(*tmk.Config)) (*tmk.Result, error) {
	cfg := tmk.DefaultConfig(n, kind)
	if mutate != nil {
		mutate(&cfg)
	}
	return tmk.Run(cfg, app.Run)
}

// VerifiedRun is RunApp plus a rank-0 check against the sequential
// reference; it fails loudly rather than report timings for wrong answers.
// Whatever Result the run produced comes back beside the error: an aborted
// run's carries its post-mortem.
func VerifiedRun(app apps.App, n int, kind tmk.TransportKind, mutate func(*tmk.Config)) (*tmk.Result, error) {
	cfg := tmk.DefaultConfig(n, kind)
	if mutate != nil {
		mutate(&cfg)
	}
	var verr error
	res, err := tmk.NewCluster(cfg).Run(func(tp *tmk.Proc) {
		app.Run(tp)
		tp.Barrier(2_000_000)
		if tp.Rank() == 0 {
			verr = app.Verify(tp)
		}
	})
	if err == nil && verr != nil {
		err = fmt.Errorf("harness: %s verification: %w", app.Name(), verr)
	}
	return res, err
}

// SizeLadder returns the Table 1 application-size ladder (reconstructed
// and scaled; see DESIGN.md §2) for an app name, smallest to largest.
func SizeLadder(name string) []apps.App {
	switch name {
	case "jacobi":
		return []apps.App{
			&apps.Jacobi{N: 256, Iters: 10, CostPerPoint: 120 * sim.Nanosecond},
			&apps.Jacobi{N: 384, Iters: 10, CostPerPoint: 120 * sim.Nanosecond},
			&apps.Jacobi{N: 512, Iters: 10, CostPerPoint: 120 * sim.Nanosecond},
			&apps.Jacobi{N: 640, Iters: 10, CostPerPoint: 120 * sim.Nanosecond},
		}
	case "sor":
		return []apps.App{
			&apps.SOR{M: 256, N: 128, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
			&apps.SOR{M: 384, N: 192, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
			&apps.SOR{M: 512, N: 256, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
			&apps.SOR{M: 640, N: 320, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond},
		}
	case "tsp":
		return []apps.App{
			&apps.TSP{Cities: 10, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond},
			&apps.TSP{Cities: 11, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond},
			&apps.TSP{Cities: 12, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond},
			&apps.TSP{Cities: 13, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond},
		}
	case "3dfft":
		return []apps.App{
			&apps.FFT3D{Z: 8, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond},
			&apps.FFT3D{Z: 16, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond},
			&apps.FFT3D{Z: 32, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond},
			&apps.FFT3D{Z: 64, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond},
		}
	default:
		return nil
	}
}

// ConfigSurface walks tmk.Config once and returns, by path, every leaf a
// caller can set on it (all) and the feature values among them (features):
// each leaf under its feature fields. Adding a setting means arguing with
// these lengths, which TestConfigSurface pins and the documents quote
// (DESIGN.md §16). A feature name that is no Config field panics: a
// deleted field's name cannot linger here uncounted.
func ConfigSurface() (features, all []string) {
	isFeature := map[string]bool{"Scheme": true, "Rendezvous": true, "Faults": true}
	var walk func(path string, ty reflect.Type, counted bool)
	walk = func(path string, ty reflect.Type, counted bool) {
		if ty.Kind() != reflect.Struct {
			all = append(all, path)
			if counted {
				features = append(features, path)
			}
			return
		}
		for i := 0; i < ty.NumField(); i++ {
			walk(path+"."+ty.Field(i).Name, ty.Field(i).Type, counted)
		}
	}
	cfg := reflect.TypeOf(tmk.Config{})
	for name := range isFeature {
		if _, ok := cfg.FieldByName(name); !ok {
			panic(fmt.Sprintf("harness: ConfigSurface: feature %q is no tmk.Config field", name))
		}
	}
	for i := 0; i < cfg.NumField(); i++ {
		walk(cfg.Field(i).Name, cfg.Field(i).Type, isFeature[cfg.Field(i).Name])
	}
	return features, all
}

// AppNames lists the paper's applications in its order.
var AppNames = []string{"jacobi", "sor", "3dfft", "tsp"}

// factor formats a baseline/improved ratio.
func factor(udp, fast sim.Time) string {
	if fast <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(udp)/float64(fast))
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
