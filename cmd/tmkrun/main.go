// Command tmkrun executes one of the paper's applications, or a small
// protocol-trace scenario, on a chosen transport and node count, printing
// the virtual execution time and the DSM/transport statistics; with
// -verify an application's result is checked against the sequential
// reference first.
//
// Usage:
//
//	tmkrun -app jacobi -nodes 16 -transport fastgm [-size 2] [-verify]
//	       [-rendezvous] [-hedge] [-seed N] [-homeless] [-prof]
//	       [-prof-json profile.json] [-critical] [-out trace.json] [-trace-cap N]
//	tmkrun -scenario counter|sharing|lockchain [-nodes 4] [per-run flags]
//	tmkrun -chaos [-seed N] [-nodes 4]
//	tmkrun -crash [-seed N] [-nodes 4]
//
// -scenario runs a small DSM program in place of -app (and -size) and
// prints its protocol trace: every fault, diff fetch, write notice,
// interval close, lock and barrier step with its virtual time
// (tmk.TextTrace subscribed to the run's tracer). A scenario has no
// sequential reference, so -verify with it is a usage error.
//
// Every other view is one more subscriber of the same tracer. -prof prints
// the protocol-entity profiler's per-page / per-lock / per-barrier tables
// and page×epoch heatmap; -prof-json also writes them as JSON (schema
// tmk-prof/1). -out writes the events every layer recorded as Chrome
// trace_event JSON, loadable in Perfetto (https://ui.perfetto.dev). Either
// prints a per-layer time breakdown of the event ring, whose capacity
// -trace-cap sets, after a warning with the drop count if it wrapped.
// -critical attaches the causal-DAG collector (DESIGN.md §13) and prints
// the critical path, end-to-end virtual time attributed to compute / wire
// / gm / manager-indirection / straggler-wait; with -out, the Chrome
// export draws one flow arrow per causal edge. Observation only: the
// execution time, statistics and protocol trace are the same without it.
//
// The sweeps ignore the per-run flags and take -seed; they and the
// scenarios take -nodes only when it is given. -chaos runs all four
// applications on both two-sided transports over a seeded lossy fabric
// (drop, corruption, latency spikes, a timed blackout), verifying
// bit-correct results, active recovery and no residual disabled ports.
// -crash injects a rank death, on all three substrates, into a barrier
// and a lock application with restart on (the run started again must
// verify and replay identically) and into the lock application without
// it (a coordinated abort whose post-mortem names the dead rank and the
// blocking entity); on udpgm the armed failure detector livelocks from 12
// nodes up, so -crash -nodes 12 or more never finishes (ROADMAP.md item
// 4).
//
// -rendezvous carries FAST/GM's large messages (and rdmagm's two-sided
// ones) by RTS/CTS instead of preposted buffers (the paper's §2.2.2
// design; experiment E5). -hedge enables hedged re-issues of straggling
// remote requests.
//
// An illegal configuration (-nodes 0, an unknown -transport, ...) is
// reported as tmk.Config.Validate's one-line verdict on stderr, exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

func main() {
	appName := flag.String("app", "jacobi", "application: jacobi, sor, tsp, 3dfft")
	scenario := flag.String("scenario", "", "run a protocol-trace scenario in place of -app: counter, sharing, or lockchain")
	nodes := flag.Int("nodes", 8, "number of DSM processes (= nodes)")
	transport := flag.String("transport", "fastgm", "substrate: fastgm, udpgm, or rdmagm")
	sizeIdx := flag.Int("size", -1, "size ladder index 0..3 (-1 = default size)")
	verify := flag.Bool("verify", false, "check the result against the sequential reference")
	rendezvous := flag.Bool("rendezvous", false, "enable the FAST/GM rendezvous protocol (fastgm, and rdmagm's two-sided half)")
	homeless := flag.Bool("homeless", false, "run the homeless protocol on rdmagm (default there is home-based LRC)")
	seed := flag.Int64("seed", 1, "simulation RNG seed (fault schedules, tie-breaking)")
	chaos := flag.Bool("chaos", false, "run the chaos sweep (all apps × transports on a lossy fabric)")
	crash := flag.Bool("crash", false, "run the crash-tolerance sweep (rank death: restart of a barrier and a lock app + coordinated abort, all 3 substrates)")
	hedge := flag.Bool("hedge", false, "enable hedged re-issues of straggling remote requests")
	profFlag := flag.Bool("prof", false, "attach the protocol-entity profiler and print its tables")
	profJSON := flag.String("prof-json", "", "write the entity profile as JSON (implies -prof)")
	critical := flag.Bool("critical", false, "collect the causal DAG and print the run's critical path")
	out := flag.String("out", "", "write a Chrome trace_event JSON file (Perfetto-loadable)")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity (0 = default)")
	flag.Parse()

	nodesSet := false
	flag.Visit(func(f *flag.Flag) { nodesSet = nodesSet || f.Name == "nodes" })
	sized := func(def int) int {
		if nodesSet {
			return *nodes
		}
		return def
	}
	sweeps := []struct {
		on  bool
		run func() error
	}{
		{*chaos, func() error {
			spec := harness.DefaultChaosSpec()
			spec.Seed, spec.Nodes = *seed, sized(spec.Nodes)
			return harness.Chaos(os.Stdout, spec)
		}},
		{*crash, func() error {
			spec := harness.DefaultCrashSpec()
			spec.Seed, spec.Nodes = *seed, sized(spec.Nodes)
			return harness.CrashSweep(os.Stdout, spec)
		}},
	}
	for _, sw := range sweeps {
		if sw.on {
			exitOn(sw.run())
			return
		}
	}

	// The run's views, all of one tracer: the scenario's protocol trace, the
	// profiler, the causal collector and (after the run) the Chrome export.
	profiling := *profFlag || *profJSON != ""
	var tracer *trace.Tracer
	if *scenario != "" || profiling || *out != "" {
		tracer = trace.New(*traceCap)
	}
	if *scenario != "" {
		tracer.Subscribe(tmk.TextTrace(os.Stdout))
	}
	var causal *trace.Causal
	if *critical {
		causal = trace.NewCausal()
		if tracer != nil {
			tracer.AttachCausal(causal)
		}
	}
	var pf *prof.Profiler
	if profiling {
		pf = prof.New()
		tracer.Subscribe(pf.Observe)
	}
	mutate := func(cfg *tmk.Config) {
		cfg.Seed = *seed
		cfg.Rendezvous = *rendezvous
		cfg.Trace, cfg.Causal = tracer, causal
		if *homeless {
			cfg.HomeBased = false
		}
		cfg.Hedge = *hedge
	}

	kind := tmk.TransportKind(*transport)
	n, name, size := *nodes, *scenario, ""
	var res *tmk.Result
	var err error
	if *scenario != "" {
		if *verify {
			fmt.Fprintln(os.Stderr, "tmkrun: -verify checks an application against its sequential reference; a scenario has none")
			os.Exit(2)
		}
		n = sized(harness.ScenarioNodes)
		res, err = harness.RunScenario(name, n, kind, mutate)
	} else {
		app := apps.ByName(*appName)
		if *sizeIdx >= 0 {
			ladder := harness.SizeLadder(*appName)
			if ladder == nil || *sizeIdx >= len(ladder) {
				fmt.Fprintf(os.Stderr, "no size %d for app %q\n", *sizeIdx, *appName)
				os.Exit(2)
			}
			app = ladder[*sizeIdx]
		}
		if app == nil {
			fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
			os.Exit(2)
		}
		name, size = app.Name(), app.Size()
		run := harness.RunApp
		if *verify {
			run = harness.VerifiedRun
		}
		res, err = run(app, n, kind, mutate)
	}
	exitOn(err)
	fmt.Printf("%s on %d nodes over %s\n", strings.TrimSpace(name+" "+size), n, kind)
	fmt.Printf("  execution time: %v\n", res.ExecTime)
	fmt.Printf("  dsm:       %v\n", &res.Stats)
	if kind == tmk.TransportRDMAGM && !*homeless {
		fmt.Printf("  homes:     pages flushed to a home %d, fetched from one %d\n",
			res.Stats.HomeFlushes, res.Stats.HomeFetches)
	}
	fmt.Printf("  transport: %v\n", &res.Transport)
	fmt.Printf("  max pinned: %.2f MB\n", float64(res.MaxPinnedBytes)/1e6)
	if *verify {
		fmt.Println("  verification: OK (matches sequential reference)")
	}
	if *out != "" {
		exitOn(harness.WriteFile(*out, tracer.WriteChromeTrace))
		fmt.Printf("  wrote %d events to %s (load in https://ui.perfetto.dev)\n", tracer.Len(), *out)
	}
	if causal != nil {
		fmt.Println()
		header := fmt.Sprintf("critical path (%d causal edges, %d duplicate arrivals suppressed)",
			causal.Len(), causal.DupArrivals())
		exitOn(trace.WriteCriticalPath(os.Stdout, header, causal.CriticalPath(), 8))
	}
	if pf != nil {
		pr := harness.LabelProfile(pf, name, size, kind, n, res)
		exitOn(harness.WriteProfileReport(os.Stdout, pr, *profJSON))
	}
	if pf != nil || *out != "" {
		fmt.Println()
		harness.WarnRingOverflow(os.Stdout, "", tracer.Overwrote(), tracer.Len())
		exitOn(trace.WriteBreakdown(os.Stdout, "per-layer breakdown", tracer.Breakdown()))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
