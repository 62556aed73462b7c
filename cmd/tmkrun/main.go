// Command tmkrun executes one of the paper's applications on a chosen
// transport and node count, printing the virtual execution time and the
// DSM/transport statistics; with -verify the result is checked against
// the sequential reference first.
//
// Usage:
//
//	tmkrun -app jacobi -nodes 16 -transport fastgm [-size 2] [-verify]
//	       [-rendezvous] [-flow] [-hedge] [-seed N] [-homeless] [-prof]
//	       [-prof-json profile.json] [-trace-cap N]
//	tmkrun -chaos [-seed N] [-nodes 4]
//	tmkrun -crash [-seed N] [-nodes 4]
//	tmkrun -incast [-seed N] [-nodes 64]
//
// -prof attaches a tracer with the protocol-entity profiler subscribed and
// prints the per-page / per-lock / per-barrier attribution tables and the
// page×epoch heatmap, plus a per-layer time breakdown from the tracer's
// event ring, whose capacity -trace-cap sets; if the ring wrapped, the
// breakdown is prefixed with a warning and the drop count so a truncated
// trace can't silently skew it. -prof-json additionally writes the full profile as
// JSON (schema tmk-prof/1). Profiling is observation only: the
// execution time and statistics are identical with and without it.
//
// -chaos ignores -app/-size/-verify and instead runs the chaos sweep: all
// four applications on both transports over a seeded lossy fabric (drop,
// corruption, latency spikes, a timed blackout), verifying bit-correct
// results, active recovery, and no residual disabled ports. -seed varies
// the fault schedule; -nodes sets the sweep's cluster size.
//
// -crash likewise runs the crash-tolerance sweep on all three substrates:
// a rank death injected into a barrier-structured and a lock-structured
// app with restart on (the run started again must finish bit-correct, and
// replay identically), and into the lock-structured app without it (a
// coordinated abort whose post-mortem names the dead rank and the
// blocking protocol entity). Known defect: on udpgm the armed failure
// detector livelocks from 12 nodes up, so -crash -nodes 12 or more never
// finishes (ROADMAP.md item 4).
//
// -incast runs the overload-resilience storm: every peer blasts a burst
// of largest-class frames at rank 0 while it is briefly masked, on all
// three substrates with credit flow control on, asserting that every
// frame is delivered and the pressure is absorbed as sender-side credit
// stalls — zero parked frames, zero socket drops, zero GM send timeouts,
// zero disabled ports. -nodes sets the storm's cluster size.
//
// -rendezvous carries FAST/GM's large messages (and rdmagm's two-sided
// ones) by RTS/CTS instead of preposted buffers (tmk.Config.Rendezvous,
// the paper's §2.2.2 design; experiment E5).
//
// -flow and -hedge arm the overload-resilience machinery on a normal
// application run: -flow enables end-to-end credit flow control and
// nothing else, -hedge enables hedged re-issues of straggling remote
// requests. Both default off; an armed run's statistics show the
// credit/hedge counters.
//
// An illegal configuration (-nodes 0, an unknown -transport, ...) is
// reported as tmk.Config.Validate's one-line verdict on stderr, exit 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

func main() {
	appName := flag.String("app", "jacobi", "application: jacobi, sor, tsp, 3dfft")
	nodes := flag.Int("nodes", 8, "number of DSM processes (= nodes)")
	transport := flag.String("transport", "fastgm", "substrate: fastgm, udpgm, or rdmagm")
	sizeIdx := flag.Int("size", -1, "size ladder index 0..3 (-1 = default size)")
	verify := flag.Bool("verify", false, "check the result against the sequential reference")
	rendezvous := flag.Bool("rendezvous", false, "enable the FAST/GM rendezvous protocol (fastgm, and rdmagm's two-sided half)")
	homeless := flag.Bool("homeless", false, "run the homeless protocol on rdmagm (default there is home-based LRC)")
	seed := flag.Int64("seed", 1, "simulation RNG seed (fault schedules, tie-breaking)")
	chaos := flag.Bool("chaos", false, "run the chaos sweep (all apps × transports on a lossy fabric)")
	crash := flag.Bool("crash", false, "run the crash-tolerance sweep (rank death: restart of a barrier and a lock app + coordinated abort, all 3 substrates)")
	incast := flag.Bool("incast", false, "run the incast overload storm (N-1 senders blast rank 0, credit flow control on)")
	flow := flag.Bool("flow", false, "enable end-to-end credit flow control on the run")
	hedge := flag.Bool("hedge", false, "enable hedged re-issues of straggling remote requests")
	profFlag := flag.Bool("prof", false, "attach the protocol-entity profiler and print its tables")
	profJSON := flag.String("prof-json", "", "write the entity profile as JSON (implies -prof)")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity for the -prof breakdown (0 = default)")
	flag.Parse()

	// The sweeps: each ignores the per-run flags, takes -seed, and takes
	// -nodes only when given (its default spec carries its own size).
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
		{*incast, func() error {
			spec := harness.DefaultIncastSpec()
			spec.Seed, spec.Nodes = *seed, sized(spec.Nodes)
			return harness.Incast(os.Stdout, spec)
		}},
	}
	for _, sw := range sweeps {
		if sw.on {
			if err := sw.run(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}

	var app apps.App
	if *sizeIdx >= 0 {
		ladder := harness.SizeLadder(*appName)
		if ladder == nil || *sizeIdx >= len(ladder) {
			fmt.Fprintf(os.Stderr, "no size %d for app %q\n", *sizeIdx, *appName)
			os.Exit(2)
		}
		app = ladder[*sizeIdx]
	} else {
		app = apps.ByName(*appName)
	}
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	kind := tmk.TransportKind(*transport)

	var pf *prof.Profiler
	var tracer *trace.Tracer
	if *profFlag || *profJSON != "" {
		pf, tracer = prof.New(), trace.New(*traceCap)
		tracer.Subscribe(pf.Observe)
	}
	mutate := func(cfg *tmk.Config) {
		cfg.Seed = *seed
		cfg.Rendezvous = *rendezvous
		cfg.Trace = tracer
		if *homeless {
			cfg.HomeBased = false
		}
		cfg.Flow = *flow
		cfg.Hedge = *hedge
	}
	run := harness.RunApp
	if *verify {
		run = harness.VerifiedRun
	}
	res, err := run(app, *nodes, kind, mutate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s %s on %d nodes over %s\n", app.Name(), app.Size(), *nodes, kind)
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
	if pf != nil {
		pr := harness.LabelProfile(pf, app.Name(), app.Size(), kind, *nodes, res)
		if err := harness.WriteProfileReport(os.Stdout, pr, *profJSON, "  "); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if tracer != nil {
		fmt.Println()
		harness.WarnRingOverflow(os.Stdout, "", tracer.Overwrote(), tracer.Len())
		if err := trace.WriteBreakdown(os.Stdout, "per-layer breakdown", tracer.Breakdown()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
