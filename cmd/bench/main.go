// Command bench runs the deterministic performance suites (E0 latency and
// bandwidth, E1 microbenchmarks, E2 application sweep, E3 one-sided vs
// two-sided substrate comparison, hedged re-issues' cost). The
// simulations are deterministic, so rerunning on the same tree reproduces
// every number exactly — any difference between commits is a real
// performance change, not noise. It does one of two things:
//
// Write (the default): each selected suite is written as a
// machine-readable BENCH_<suite>.json (schema tmk-bench/1) into -out. A PR
// that means to move virtual time commits the rewritten files; tier-1's
// TestBenchReproducibleByteIdentical (`make bench-identical`) fails while
// the checked-in files are not what the tree generates.
//
// Compare and gate (-gate, `make bench-gate`): nothing is written. Each
// selected suite is regenerated in memory and held to the checked-in
// BENCH_<suite>.json in -out: every row that moved is printed with its
// old and new value, and no row may be worse than the checked-in value
// by more than its tolerance — max(-gate-abs-ns, -gate-rel · |old|);
// times are better lower, rates better higher — with a row disappearing
// itself a failure. `-gate-rel 0 -gate-abs-ns 0` asks for exactness.
// Exit status is nonzero on any failure.
//
// Usage:
//
//	bench [-suite all|e0|e1|e2|e3|hedge] [-out DIR]
//	      [-gate [-gate-rel 0.02] [-gate-abs-ns 500]]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	suite := flag.String("suite", "all", "which suite to run: e0, e1, e2, e3, hedge, all")
	out := flag.String("out", ".", "directory to write BENCH_<suite>.json into (with -gate: to read the checked-in files from)")
	gate := flag.Bool("gate", false, "write nothing: print every regenerated row that differs from the checked-in files in -out, and fail if one is worse by more than the tolerance")
	gateRel := flag.Float64("gate-rel", harness.GateRelTol, "gate relative tolerance (fraction of the checked-in value)")
	gateAbs := flag.Int64("gate-abs-ns", harness.GateAbsNs, "gate absolute tolerance floor, ns")
	flag.Parse()

	if *gate {
		reports, err := harness.GateBench(*suite, *out, *gateRel, *gateAbs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !harness.PrintGate(os.Stdout, reports) {
			os.Exit(1)
		}
		return
	}

	paths, err := harness.BenchAll(*suite, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range paths {
		fmt.Printf("wrote %s\n", p)
	}
}
