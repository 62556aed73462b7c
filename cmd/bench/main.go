// Command bench runs the deterministic performance suites (E0 netperf,
// E1 microbenchmarks, E2 application sweep, E3 one-sided vs two-sided
// substrate comparison, churn membership cost, flow overload-resilience
// cost) and writes each as a machine-readable BENCH_<suite>.json
// (schema tmk-bench/1). The
// simulations are deterministic, so rerunning on the same tree
// reproduces every file byte-identically — any diff between commits is a
// real performance change, not noise.
//
// With -diff, nothing is written: each selected suite is regenerated
// in-memory and compared against the checked-in BENCH_<suite>.json in
// -out, printing per-row deltas.
//
// With -gate, the comparison becomes a regression gate (`make
// bench-gate`): no regenerated row may be worse than the checked-in
// value by more than a per-row tolerance — max(-gate-abs-ns, -gate-rel ·
// |old|); times are better lower, rates better higher — and a row
// disappearing is itself a failure. A row better by more than the
// tolerance is listed as improved. Exit status is nonzero on any
// violation.
//
// -trace-cap N attaches a shared structured-event ring of capacity N to
// every benchmark simulation (observation only — the suites are
// bit-identical either way) and reports whether the ring wrapped, so a
// truncated trace can't silently skew any breakdown derived from it.
//
// Usage:
//
//	bench [-suite all|e0|e1|e2|e3|churn|flow] [-out DIR] [-diff] [-gate]
//	      [-gate-rel 0.02] [-gate-abs-ns 500] [-trace-cap N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	suite := flag.String("suite", "all", "which suite to run: e0, e1, e2, e3, churn, flow, all")
	out := flag.String("out", ".", "directory to write BENCH_<suite>.json into")
	diff := flag.Bool("diff", false, "compare regenerated suites against the checked-in files in -out instead of writing")
	gate := flag.Bool("gate", false, "regression gate: fail if a regenerated row is worse than the checked-in files in -out by more than the tolerance")
	gateRel := flag.Float64("gate-rel", harness.GateRelTol, "gate relative tolerance (fraction of the checked-in value)")
	gateAbs := flag.Int64("gate-abs-ns", harness.GateAbsNs, "gate absolute tolerance floor, ns")
	traceCap := flag.Int("trace-cap", 0, "attach a shared event ring of this capacity to every benchmark run (0 = off)")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceCap > 0 {
		tracer = trace.New(*traceCap)
		harness.SetBenchTracer(tracer)
	}
	defer reportRing(tracer)

	if *gate {
		reports, err := harness.GateBench(*suite, *out, *gateRel, *gateAbs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok := harness.PrintGate(os.Stdout, reports)
		reportRing(tracer)
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *diff {
		if err := diffSuites(*suite, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var paths []string
	var err error
	if *suite == "all" {
		paths, err = harness.BenchAll(*out)
	} else {
		found := false
		for _, g := range harness.BenchGens() {
			if g.Name != *suite {
				continue
			}
			found = true
			var s *harness.BenchSuite
			if s, err = g.Fn(); err == nil {
				var p string
				p, err = harness.WriteBench(*out, s)
				paths = []string{p}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suite)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range paths {
		fmt.Printf("wrote %s\n", p)
	}
}

// reportRing surfaces the shared ring's state: an overflow means any
// per-layer breakdown built from this trace under-counts early history,
// so it must never pass silently. Idempotent (prints once).
var ringReported bool

func reportRing(tracer *trace.Tracer) {
	if tracer == nil || ringReported {
		return
	}
	ringReported = true
	fmt.Printf("traced %d events across the benchmark runs\n", tracer.Len())
	if n := tracer.Overwrote(); n > 0 {
		fmt.Printf("warning: ring dropped %d oldest events; rerun with -trace-cap %d for full coverage\n",
			n, tracer.Len()+int(n))
	}
}

// diffSuites regenerates the selected suites and prints per-row deltas
// against the checked-in files. Deltas are informational — performance
// is expected to move between commits — so only a failure to run or to
// read a checked-in file is an error.
func diffSuites(suite, dir string) error {
	ran := false
	for _, g := range harness.BenchGens() {
		if suite != "all" && suite != g.Name {
			continue
		}
		ran = true
		cur, err := g.Fn()
		if err != nil {
			return err
		}
		old, err := harness.ReadBench(filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", g.Name)))
		if err != nil {
			return err
		}
		harness.PrintBenchDiff(os.Stdout, g.Name, harness.DiffBench(old, cur))
	}
	if !ran {
		return fmt.Errorf("unknown suite %q", suite)
	}
	return nil
}
