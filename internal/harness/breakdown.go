package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/substrate/fastgm"
	"repro/internal/tmk"
	"repro/internal/trace"
	"repro/internal/ubench"
)

// Per-layer time breakdowns (tentpole of the tracing subsystem): rerun a
// representative subset of E1 (microbenchmarks) and E4 (async-scheme
// ablation) with a structured tracer attached and report where the
// virtual time goes, layer by layer. Tracing is observation only, so the
// headline numbers match the untraced tables exactly.

// LayerBreakdown is one traced run's per-layer aggregation.
type LayerBreakdown struct {
	Name      string
	Transport tmk.TransportKind
	Rows      []trace.BreakdownRow
}

// breakdownOf aggregates a finished run's tracer. The breakdown runs are
// fixed and the default ring holds each of them several times over, so a
// ring that dropped events is an error, not an under-counted table.
func breakdownOf(name string, kind tmk.TransportKind, tracer *trace.Tracer) (LayerBreakdown, error) {
	if dropped := tracer.Overwrote(); dropped > 0 {
		return LayerBreakdown{}, fmt.Errorf("breakdown %s %s: ring dropped %d of %d events",
			name, kind, dropped, int64(tracer.Len())+dropped)
	}
	return LayerBreakdown{Name: name, Transport: kind, Rows: tracer.Breakdown()}, nil
}

// BreakdownE1 reruns three E1 microbenchmarks (Barrier, Lock indirect,
// Page) on 4 nodes for each transport, tracing enabled.
func BreakdownE1() ([]LayerBreakdown, error) {
	type bench struct {
		name string
		fn   func(cfg tmk.Config) (ubench.Result, error)
	}
	benches := []bench{
		{"Barrier (4)", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Barrier(cfg, 10) }},
		{"Lock indirect", func(cfg tmk.Config) (ubench.Result, error) { return ubench.LockIndirect(cfg, 10) }},
		{"Page", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Page(cfg, 64) }},
	}
	var out []LayerBreakdown
	for _, b := range benches {
		for _, kind := range Transports {
			cfg := tmk.DefaultConfig(4, kind)
			tracer := trace.New(0)
			cfg.Trace = tracer
			if _, err := b.fn(cfg); err != nil {
				return nil, fmt.Errorf("breakdown %s %s: %w", b.name, kind, err)
			}
			bd, err := breakdownOf(b.name, kind, tracer)
			if err != nil {
				return nil, err
			}
			out = append(out, bd)
		}
	}
	return out, nil
}

// BreakdownE4 reruns the E4 Jacobi workload under each asynchronous-
// message scheme with tracing enabled, exposing where each scheme's
// overhead lands (interrupt service vs polling vs timer latency).
func BreakdownE4() ([]LayerBreakdown, error) {
	app := &apps.Jacobi{N: 256, Iters: 8, CostPerPoint: 120 * sim.Nanosecond}
	var out []LayerBreakdown
	for _, scheme := range []fastgm.AsyncScheme{fastgm.AsyncInterrupt, fastgm.AsyncPollingThread, fastgm.AsyncTimer} {
		tracer := trace.New(0)
		_, err := RunApp(app, 8, tmk.TransportFastGM, func(cfg *tmk.Config) {
			cfg.Scheme = scheme
			cfg.Trace = tracer
		})
		if err != nil {
			return nil, fmt.Errorf("breakdown jacobi %v: %w", scheme, err)
		}
		bd, err := breakdownOf(fmt.Sprintf("jacobi 256² x8 [%v]", scheme), tmk.TransportFastGM, tracer)
		if err != nil {
			return nil, err
		}
		out = append(out, bd)
	}
	return out, nil
}

// PrintBreakdowns renders a series of per-layer tables.
func PrintBreakdowns(w io.Writer, header string, bds []LayerBreakdown) {
	fprintf(w, "%s\n", header)
	for _, bd := range bds {
		fprintf(w, "\n")
		trace.WriteBreakdown(w, fmt.Sprintf("%s — %s", bd.Name, bd.Transport), bd.Rows)
	}
}

// WarnRingOverflow prints the warning a trace ring that dropped events
// gets, naming the capacity that would have held the whole run (dropped +
// held); nothing if it dropped none.
func WarnRingOverflow(w io.Writer, dropped int64, held int) {
	if dropped > 0 {
		fprintf(w, "warning: ring dropped %d oldest events; rerun with -trace-cap %d for full coverage\n",
			dropped, held+int(dropped))
	}
}
