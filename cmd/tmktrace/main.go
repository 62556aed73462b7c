// Command tmktrace runs a small DSM scenario with protocol tracing
// enabled, printing every consistency action (faults, diff fetches,
// write notices, interval closes, lock and barrier steps) with virtual
// timestamps — a debugging lens onto the lazy-release-consistency
// machinery. The printed trace is tmk.TextTrace subscribed to the run's
// tracer.
//
// Usage:
//
//	tmktrace [-scenario counter|sharing|lockchain] [-nodes 4] [-transport fastgm]
//	         [-seed N] [-out trace.json] [-trace-cap N] [-critical]
//	         [-prof] [-prof-json profile.json]
//
// With -out, the run also writes the structured events it recorded from
// every layer as a Chrome trace_event JSON file loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; a per-layer time
// breakdown is printed after the run, with a warning if the event ring
// overflowed (-trace-cap raises its capacity). -critical attaches the
// causal-DAG collector (DESIGN.md §13) and prints the run's critical
// path — end-to-end virtual time attributed to compute / wire / gm /
// manager-indirection / straggler-wait — after the run; combined with
// -out, the exported Chrome trace additionally carries one flow arrow
// per causal edge between the process tracks. -prof subscribes the
// protocol-entity profiler to the same tracer and prints per-page/lock/
// barrier attribution; -prof-json writes the profile as JSON. The printed
// protocol trace is unchanged either way.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

func main() {
	scenario := flag.String("scenario", "counter", "counter, sharing, or lockchain")
	nodes := flag.Int("nodes", 4, "number of DSM processes")
	transport := flag.String("transport", "fastgm", "substrate: fastgm, udpgm, or rdmagm")
	out := flag.String("out", "", "write a Chrome trace_event JSON file (Perfetto-loadable)")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity (0 = default)")
	critical := flag.Bool("critical", false, "collect the causal DAG and print the run's critical path")
	seed := flag.Int64("seed", 1, "simulation RNG seed")
	profFlag := flag.Bool("prof", false, "attach the protocol-entity profiler and print its tables")
	profJSON := flag.String("prof-json", "", "write the entity profile as JSON (implies -prof)")
	flag.Parse()

	cfg := tmk.DefaultConfig(*nodes, tmk.TransportKind(*transport))
	cfg.Seed = *seed
	tracer := trace.New(*traceCap)
	tracer.Subscribe(tmk.TextTrace(os.Stdout))
	cfg.Trace = tracer
	var causal *trace.Causal
	if *critical {
		causal = trace.NewCausal()
		cfg.Causal = causal
		tracer.AttachCausal(causal)
	}
	var pf *prof.Profiler
	if *profFlag || *profJSON != "" {
		pf = prof.New()
		tracer.Subscribe(pf.Observe)
	}
	cluster := tmk.NewCluster(cfg)

	var body func(tp *tmk.Proc)
	switch *scenario {
	case "counter":
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(8)
			tp.Barrier(1)
			for k := 0; k < 2; k++ {
				tp.LockAcquire(0)
				tp.WriteF64(r, 0, tp.ReadF64(r, 0)+1)
				tp.LockRelease(0)
			}
			tp.Barrier(2)
		}
	case "sharing":
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(tmk.PageSize)
			slots := tmk.PageSize / 8
			for i := tp.Rank(); i < slots; i += tp.NProcs() {
				tp.WriteF64(r, i, float64(i))
			}
			tp.Barrier(1)
			tp.ReadF64(r, 0)
			tp.Barrier(2)
		}
	case "lockchain":
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(8)
			tp.Barrier(1)
			// Strict chain: each rank takes the lock in turn.
			for turn := 0; turn < tp.NProcs(); turn++ {
				if turn == tp.Rank() {
					tp.LockAcquire(1)
					tp.WriteF64(r, 0, float64(turn))
					tp.LockRelease(1)
				}
				tp.Barrier(int32(10 + turn))
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	res, err := cluster.Run(body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("--- done in %v; %v\n", res.ExecTime, &res.Stats)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("--- wrote %d events to %s (load in https://ui.perfetto.dev)\n",
			tracer.Len(), *out)
		harness.WarnRingOverflow(os.Stdout, "--- ", tracer.Overwrote(), tracer.Len())
		trace.WriteBreakdown(os.Stdout, "per-layer breakdown", tracer.Breakdown())
	}

	if causal != nil {
		fmt.Println()
		header := fmt.Sprintf("critical path (%d causal edges, %d duplicate arrivals suppressed)",
			causal.Len(), causal.DupArrivals())
		if err := trace.WriteCriticalPath(os.Stdout, header, causal.CriticalPath(), 8); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if pf != nil {
		pr := harness.LabelProfile(pf, *scenario, "", tmk.TransportKind(*transport), *nodes, res)
		if err := harness.WriteProfileReport(os.Stdout, pr, *profJSON, "--- "); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
