// Command figures regenerates every table and figure of the paper's
// evaluation section (experiments E0–E5 in DESIGN.md).
//
// Usage:
//
//	figures [-fig 0|3|4|5|e4|e5|e6|breakdown|prof|critical|all] [-nodes 4,8,16]
//	        [-barrier-nodes 2,4,8,16] [-big16] [-e6-sizes 4,...,256]
//	        [-prof-nodes 8] [-prof-small] [-critical-nodes 4] [-trace-cap N]
//
// -fig 0 prints the Section 3.1 latency and bandwidth of raw GM, FAST/GM
// and UDP/GM; -fig 3 the Figure 3 microbenchmarks, whose Barrier rows run
// on the -barrier-nodes cluster sizes.
// -big16 runs the Figure 5 sweep on 16 nodes (the paper's size); without
// it the sweep runs on 8 nodes, which regenerates the same shapes faster.
// -e6-sizes sets the scalability sweep's cluster sizes; the default ends
// at the paper's future-work target of 256 nodes (the 256-node point
// alone takes about a second of host time).
// -fig prof reruns the applications with the protocol-entity profiler
// attached and prints per-page/lock/barrier attribution with page×epoch
// heatmaps (not part of "all"; -prof-small uses the smallest Table 1
// sizes). -fig critical reruns every application × transport (all
// three, smallest Table 1 sizes, -critical-nodes processes) with the
// causal-DAG collector attached and prints each run's critical-path
// attribution (DESIGN.md §13; also not part of "all" — it reruns all
// twelve combinations). -trace-cap sizes the breakdown runs' event
// ring.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 0, 3, 4, 5, e4, e5, e6, breakdown, prof, critical, all")
	nodesFlag := flag.String("nodes", "4,8,16", "node counts for the Figure 4 sweep")
	barrierFlag := flag.String("barrier-nodes", "2,4,8,16", "node counts for the Figure 3 Barrier microbenchmark")
	e6Flag := flag.String("e6-sizes", "4,8,16,32,64,128,256", "cluster sizes for the E6 scalability sweep")
	big16 := flag.Bool("big16", true, "run the Figure 5 sweep on 16 nodes (paper size)")
	profNodes := flag.Int("prof-nodes", 8, "node count for the -fig prof runs")
	profSmall := flag.Bool("prof-small", false, "profile the smallest Table 1 sizes instead of the defaults")
	criticalNodes := flag.Int("critical-nodes", 4, "node count for the -fig critical runs")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity for the breakdown runs (0 = default)")
	flag.Parse()

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
	fig5Nodes := 8
	if *big16 {
		fig5Nodes = 16
	}

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
		rows, err := harness.Figure5(fig5Nodes)
		exitOn(err)
		harness.PrintFigure5(os.Stdout, rows, fig5Nodes)
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
		bds, err := harness.BreakdownE1(*traceCap)
		exitOn(err)
		harness.PrintBreakdowns(os.Stdout, "E1 — per-layer time breakdown (traced rerun)", bds)
		fmt.Println()
		bds, err = harness.BreakdownE4(*traceCap)
		exitOn(err)
		harness.PrintBreakdowns(os.Stdout, "E4 — per-layer time breakdown (traced rerun)", bds)
	}
	// Entity profiles are opt-in (not part of "all"): they rerun every
	// application and would double the default run time.
	if *fig == "prof" {
		runs, err := harness.ProfEntities(*profNodes, *profSmall)
		exitOn(err)
		harness.PrintProfEntities(os.Stdout, runs)
	}
	// Critical paths are likewise opt-in: they rerun every application on
	// all three transports.
	if *fig == "critical" {
		rows, err := harness.CriticalTable(*criticalNodes)
		exitOn(err)
		harness.PrintCritical(os.Stdout, *criticalNodes, rows)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
