// Command figures regenerates every table and figure of the paper's
// evaluation section (experiments E0–E6 in DESIGN.md).
//
// Usage:
//
//	figures [-fig 0|3|4|5|e4|e5|e6|breakdown|all] [-nodes 4,8,16]
//	        [-barrier-nodes 2,4,8,16] [-e6-sizes 4,...,256]
//
// -fig 0 prints the Section 3.1 latency and bandwidth of raw GM, FAST/GM
// and UDP/GM; -fig 3 the Figure 3 microbenchmarks, whose Barrier rows run
// on the -barrier-nodes cluster sizes. Figure 5 runs on 16 nodes, the
// paper's size. -e6-sizes sets the scalability sweep's cluster sizes; the
// default ends at the paper's future-work target of 256 nodes (the
// 256-node point alone takes about a second of host time). An unknown
// -fig is a usage error (exit 2).
//
// One run explained — its entity profile or its critical path — is
// `tmkrun -app A -prof` or `tmkrun -app A -critical`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// figureNames lists the -fig values other than "all", in print order.
var figureNames = []string{"0", "3", "4", "5", "e4", "e5", "e6", "breakdown"}

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: "+strings.Join(figureNames, ", ")+", all")
	nodesFlag := flag.String("nodes", "4,8,16", "node counts for the Figure 4 sweep")
	barrierFlag := flag.String("barrier-nodes", "2,4,8,16", "node counts for the Figure 3 Barrier microbenchmark")
	e6Flag := flag.String("e6-sizes", "4,8,16,32,64,128,256", "cluster sizes for the E6 scalability sweep")
	flag.Parse()

	if *fig != "all" && !slices.Contains(figureNames, *fig) {
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q (want %s or all)\n", *fig, strings.Join(figureNames, ", "))
		os.Exit(2)
	}

	parseSizes := func(flagName, val string) []int {
		var out []int
		for _, s := range strings.Split(val, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad %s: %v\n", flagName, err)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	nodes := parseSizes("-nodes", *nodesFlag)
	barrierNodes := parseSizes("-barrier-nodes", *barrierFlag)
	e6Sizes := parseSizes("-e6-sizes", *e6Flag)

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("0") {
		rows, err := harness.Netperf()
		exitOn(err)
		harness.PrintNetperf(os.Stdout, rows)
		fmt.Println()
	}
	if want("3") {
		rows, err := harness.Figure3(barrierNodes)
		exitOn(err)
		harness.PrintFigure3(os.Stdout, rows)
		fmt.Println()
	}
	if want("4") {
		rows, err := harness.Figure4(nodes)
		exitOn(err)
		harness.PrintFigure4(os.Stdout, rows)
		fmt.Println()
	}
	if want("5") {
		rows, err := harness.Figure5()
		exitOn(err)
		harness.PrintFigure5(os.Stdout, rows)
		fmt.Println()
	}
	if want("e4") {
		rows, err := harness.AsyncSchemes()
		exitOn(err)
		harness.PrintAsyncSchemes(os.Stdout, rows)
		fmt.Println()
	}
	if want("e5") {
		rows, err := harness.RendezvousAblation(8)
		exitOn(err)
		harness.PrintRendezvous(os.Stdout, rows)
		fmt.Println()
	}
	if want("e6") {
		rows, err := harness.Scaling(e6Sizes)
		exitOn(err)
		harness.PrintScaling(os.Stdout, rows)
		fmt.Println()
	}
	if want("breakdown") {
		bds, err := harness.BreakdownE1()
		exitOn(err)
		harness.PrintBreakdowns(os.Stdout, "E1 — per-layer time breakdown (traced rerun)", bds)
		fmt.Println()
		bds, err = harness.BreakdownE4()
		exitOn(err)
		harness.PrintBreakdowns(os.Stdout, "E4 — per-layer time breakdown (traced rerun)", bds)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
