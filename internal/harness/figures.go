package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate/fastgm"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

// ---------------------------------------------------------------------
// E0 — Section 3.1: raw latency and bandwidth of GM, FAST/GM, UDP/GM.
// ---------------------------------------------------------------------

// NetRow is one transport's latency/bandwidth measurement.
type NetRow struct {
	Layer     string
	Latency   sim.Time // 1-byte one-way (half RTT)
	Bandwidth float64  // bytes/s at the largest message size
}

// Netperf measures E0. Raw GM is measured against the gm package
// directly; FAST/GM and UDP/GM through the substrate interface.
func Netperf() ([]NetRow, error) {
	rows := []NetRow{}

	// Raw GM ping-pong and streaming.
	lat, bw, err := rawGM()
	if err != nil {
		return nil, err
	}
	rows = append(rows, NetRow{Layer: "GM", Latency: lat, Bandwidth: bw})

	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM} {
		lat, bw, err := transportPerf(kind)
		if err != nil {
			return nil, err
		}
		name := "FAST/GM"
		if kind == tmk.TransportUDPGM {
			name = "UDP/GM"
		}
		rows = append(rows, NetRow{Layer: name, Latency: lat, Bandwidth: bw})
	}
	return rows, nil
}

func rawGM() (sim.Time, float64, error) {
	s := sim.New(1)
	fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), 2)
	sys := gm.NewSystem(s, fabric, gm.DefaultParams())
	pa, err := sys.Node(0).OpenPort(2)
	if err != nil {
		return 0, 0, err
	}
	pb, err := sys.Node(1).OpenPort(2)
	if err != nil {
		return 0, 0, err
	}
	const pingPongs = 32
	const streamMsg = 32768
	const streamCount = 64
	var rtt, streamTime sim.Time
	s.Spawn("b", 0, func(p *sim.Proc) {
		for i := 0; i < pingPongs+gm.DefaultParams().SendTokens+4; i++ {
			pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		}
		for i := 0; i < 4; i++ {
			pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 15))
		}
		reply := sys.Node(1).AllocBuffer(p, 4)
		for i := 0; i < pingPongs; i++ {
			rv := pb.WaitRecv(p)
			pb.ProvideReceiveBuffer(rv.Buffer)
			if err := pb.Send(p, 0, 2, reply, 1, nil); err != nil {
				panic(err)
			}
		}
		// Streaming phase: recycle large buffers.
		for i := 0; i < streamCount; i++ {
			rv := pb.WaitRecv(p)
			pb.ProvideReceiveBuffer(rv.Buffer)
		}
	})
	s.Spawn("a", 0, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pa.ProvideReceiveBuffer(sys.Node(0).AllocBuffer(p, 4))
		}
		ping := sys.Node(0).AllocBuffer(p, 4)
		big := sys.Node(0).AllocBuffer(p, 15)
		p.Advance(sim.Millisecond) // let B post
		start := p.Now()
		for i := 0; i < pingPongs; i++ {
			if err := pa.Send(p, 1, 2, ping, 1, nil); err != nil {
				panic(err)
			}
			rv := pa.WaitRecv(p)
			pa.ProvideReceiveBuffer(rv.Buffer)
		}
		rtt = (p.Now() - start) / pingPongs
		p.Advance(sim.Millisecond)
		start = p.Now()
		done := 0
		for sent := 0; sent < streamCount; {
			if pa.Tokens() > 0 {
				sent++
				if err := pa.Send(p, 1, 2, big, streamMsg, func(st gm.SendStatus) { done++ }); err != nil {
					panic(err)
				}
			} else {
				p.Advance(sim.Micro(2))
			}
		}
		for done < streamCount {
			p.Advance(sim.Micro(5))
		}
		streamTime = p.Now() - start
	})
	if err := s.Run(); err != nil {
		return 0, 0, err
	}
	return rtt / 2, float64(streamMsg*streamCount) / streamTime.Seconds(), nil
}

// transportPerf measures a substrate's half-RTT and large-message
// streaming bandwidth using the ping handler built into the DSM engine.
func transportPerf(kind tmk.TransportKind) (sim.Time, float64, error) {
	cfg := tmk.DefaultConfig(2, kind)
	const pingPongs = 32
	const bigSize = 24000
	const bigCount = 32
	var rtt, bigTime sim.Time
	big := make([]byte, bigSize)
	_, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		if tp.Rank() != 0 {
			// Rank 1 serves pings via the DSM's request handler and just
			// waits for the final barrier.
			return
		}
		tr := tp.Transport()
		p := tp.Sim()
		tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
		start := p.Now()
		for i := 0; i < pingPongs; i++ {
			tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
		}
		rtt = (p.Now() - start) / pingPongs
		start = p.Now()
		for i := 0; i < bigCount; i++ {
			tr.Call(p, 1, &msg.Message{Kind: msg.KPing, PageData: big})
		}
		bigTime = p.Now() - start
	})
	if err != nil {
		return 0, 0, err
	}
	// Each Call moves bigSize bytes out and back: 2×payload per RTT.
	bw := float64(2*bigSize*bigCount) / bigTime.Seconds()
	return rtt / 2, bw, nil
}

// PrintNetperf renders the E0 table.
func PrintNetperf(w io.Writer, rows []NetRow) {
	fprintf(w, "E0 — latency/bandwidth (paper §3.1: GM 8.99µs/≈235MB/s, FAST/GM 9.4µs, UDP/GM ≈35µs*)\n")
	fprintf(w, "%-10s %14s %16s\n", "layer", "latency(1B)", "bandwidth")
	for _, r := range rows {
		fprintf(w, "%-10s %14v %13.1f MB/s\n", r.Layer, r.Latency, r.Bandwidth/1e6)
	}
}

// ---------------------------------------------------------------------
// E1 — Figure 3: microbenchmarks, UDP/GM vs FAST/GM.
// ---------------------------------------------------------------------

// Fig3Row is one microbenchmark across both transports.
type Fig3Row struct {
	Bench string
	UDP   sim.Time
	Fast  sim.Time
}

// Figure3 runs the paper's microbenchmark suite: Barrier on 2/4/8/16
// nodes, Lock direct/indirect, Page, Diff small/large.
func Figure3(barrierNodes []int) ([]Fig3Row, error) {
	type runner struct {
		name string
		fn   func(cfg tmk.Config) (ubench.Result, error)
	}
	var rs []runner
	for _, n := range barrierNodes {
		n := n
		rs = append(rs, runner{fmt.Sprintf("Barrier (%d)", n), func(cfg tmk.Config) (ubench.Result, error) {
			cfg.Procs = n
			return ubench.Barrier(cfg, 10)
		}})
	}
	rs = append(rs,
		runner{"Lock direct", func(cfg tmk.Config) (ubench.Result, error) { return ubench.LockDirect(cfg, 10) }},
		runner{"Lock indirect", func(cfg tmk.Config) (ubench.Result, error) { return ubench.LockIndirect(cfg, 10) }},
		runner{"Page", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Page(cfg, 64) }},
		runner{"Diff small", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 32, false) }},
		runner{"Diff large", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 32, true) }},
	)
	// The k-writer false-sharing fault, the scatter-gather fast path: its
	// slope over k is what the overlapped fetches cost.
	for _, k := range []int{2, 4, 8} {
		k := k
		rs = append(rs, runner{fmt.Sprintf("DiffMultiWriter (%d writers)", k),
			func(cfg tmk.Config) (ubench.Result, error) {
				cfg.Procs = k + 1
				return ubench.DiffMultiWriter(cfg, 16, k)
			}})
	}
	var rows []Fig3Row
	for _, r := range rs {
		udp, err := r.fn(tmk.DefaultConfig(4, tmk.TransportUDPGM))
		if err != nil {
			return nil, fmt.Errorf("%s (udp): %w", r.name, err)
		}
		fast, err := r.fn(tmk.DefaultConfig(4, tmk.TransportFastGM))
		if err != nil {
			return nil, fmt.Errorf("%s (fast): %w", r.name, err)
		}
		rows = append(rows, Fig3Row{Bench: r.name, UDP: udp.Per, Fast: fast.Per})
	}
	return rows, nil
}

// PrintFigure3 renders the E1 table.
func PrintFigure3(w io.Writer, rows []Fig3Row) {
	fprintf(w, "E1 — Figure 3 microbenchmarks (time per operation)\n")
	fprintf(w, "%-16s %12s %12s %8s\n", "benchmark", "UDP/GM", "FAST/GM", "factor")
	for _, r := range rows {
		fprintf(w, "%-16s %12v %12v %8s\n", r.Bench, r.UDP, r.Fast, factor(r.UDP, r.Fast))
	}
}

// ---------------------------------------------------------------------
// E2 — Figure 4: application execution time vs system size.
// ---------------------------------------------------------------------

// Fig4Row is one (app, nodes) cell across both transports.
type Fig4Row struct {
	App   string
	Nodes int
	UDP   sim.Time
	Fast  sim.Time
	// Speedups are relative to the 1-process run.
	UDPSpeedup  float64
	FastSpeedup float64
}

// Figure4 sweeps the default-size applications over the node counts.
func Figure4(nodes []int) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, name := range AppNames {
		app := apps.ByName(name)
		base := map[tmk.TransportKind]sim.Time{}
		for _, kind := range Transports {
			res, err := RunApp(app, 1, kind, nil)
			if err != nil {
				return nil, fmt.Errorf("%s 1p %s: %w", name, kind, err)
			}
			base[kind] = res.ExecTime
		}
		for _, n := range nodes {
			row := Fig4Row{App: name, Nodes: n}
			for _, kind := range Transports {
				res, err := RunApp(app, n, kind, nil)
				if err != nil {
					return nil, fmt.Errorf("%s %dp %s: %w", name, n, kind, err)
				}
				switch kind {
				case tmk.TransportUDPGM:
					row.UDP = res.ExecTime
					row.UDPSpeedup = float64(base[kind]) / float64(res.ExecTime)
				case tmk.TransportFastGM:
					row.Fast = res.ExecTime
					row.FastSpeedup = float64(base[kind]) / float64(res.ExecTime)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFigure4 renders the E2 table.
func PrintFigure4(w io.Writer, rows []Fig4Row) {
	fprintf(w, "E2 — Figure 4: execution time vs system size (default sizes)\n")
	fprintf(w, "%-8s %6s %12s %12s %8s %10s %10s\n",
		"app", "nodes", "UDP/GM", "FAST/GM", "factor", "spdup-UDP", "spdup-FAST")
	for _, r := range rows {
		fprintf(w, "%-8s %6d %12v %12v %8s %10.2f %10.2f\n",
			r.App, r.Nodes, r.UDP, r.Fast, factor(r.UDP, r.Fast), r.UDPSpeedup, r.FastSpeedup)
	}
}

// ---------------------------------------------------------------------
// E3 — Table 1 + Figure 5: application size sweep on 16 nodes vs 1.
// ---------------------------------------------------------------------

// Fig5Row is one (app, size) line: the four series of Figure 5.
type Fig5Row struct {
	App    string
	Size   string
	UDP16  sim.Time
	Fast16 sim.Time
	UDP1   sim.Time
	Fast1  sim.Time
}

// fig5Nodes is Figure 5's cluster size, the paper's.
const fig5Nodes = 16

// Figure5 sweeps the Table 1 size ladders on 16 nodes and on 1.
func Figure5() ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, name := range AppNames {
		for _, app := range SizeLadder(name) {
			row := Fig5Row{App: name, Size: app.Size()}
			var err error
			if row.UDP16, err = exec(app, fig5Nodes, tmk.TransportUDPGM); err != nil {
				return nil, err
			}
			if row.Fast16, err = exec(app, fig5Nodes, tmk.TransportFastGM); err != nil {
				return nil, err
			}
			if row.UDP1, err = exec(app, 1, tmk.TransportUDPGM); err != nil {
				return nil, err
			}
			if row.Fast1, err = exec(app, 1, tmk.TransportFastGM); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func exec(app apps.App, n int, kind tmk.TransportKind) (sim.Time, error) {
	res, err := RunApp(app, n, kind, nil)
	if err != nil {
		return 0, fmt.Errorf("%s %s %dp %s: %w", app.Name(), app.Size(), n, kind, err)
	}
	return res.ExecTime, nil
}

// PrintFigure5 renders the E3 table.
func PrintFigure5(w io.Writer, rows []Fig5Row) {
	fprintf(w, "E3 — Table 1 + Figure 5: execution time vs application size\n")
	fprintf(w, "%-8s %-12s %12s %12s %8s %12s %12s\n",
		"app", "size", fmt.Sprintf("UDP-%d", fig5Nodes), fmt.Sprintf("FAST-%d", fig5Nodes),
		"factor", "UDP-1", "FAST-1")
	for _, r := range rows {
		fprintf(w, "%-8s %-12s %12v %12v %8s %12v %12v\n",
			r.App, r.Size, r.UDP16, r.Fast16, factor(r.UDP16, r.Fast16), r.UDP1, r.Fast1)
	}
}

// ---------------------------------------------------------------------
// E4 — ablation: the three asynchronous-message schemes (§2.2.4).
// ---------------------------------------------------------------------

// E4Row is one async scheme's profile: synchronization microbenchmarks
// (where fast request detection wins) and a compute-heavy application
// (where the polling thread's stolen cycles show up) — the two sides of
// the paper's trade-off.
type E4Row struct {
	Scheme       fastgm.AsyncScheme
	LockIndirect sim.Time
	Barrier      sim.Time
	Jacobi       sim.Time
}

// AsyncSchemes compares interrupt vs polling-thread vs timer.
func AsyncSchemes() ([]E4Row, error) {
	var rows []E4Row
	for _, scheme := range []fastgm.AsyncScheme{fastgm.AsyncInterrupt, fastgm.AsyncPollingThread, fastgm.AsyncTimer} {
		mutate := func(cfg *tmk.Config) { cfg.Scheme = scheme }
		cfgOf := func(n int) tmk.Config {
			cfg := tmk.DefaultConfig(n, tmk.TransportFastGM)
			mutate(&cfg)
			return cfg
		}
		li, err := ubench.LockIndirect(cfgOf(4), 10)
		if err != nil {
			return nil, err
		}
		br, err := ubench.Barrier(cfgOf(8), 10)
		if err != nil {
			return nil, err
		}
		jac := &apps.Jacobi{N: 256, Iters: 8, CostPerPoint: 120 * sim.Nanosecond}
		res, err := RunApp(jac, 8, tmk.TransportFastGM, mutate)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{Scheme: scheme, LockIndirect: li.Per, Barrier: br.Per, Jacobi: res.ExecTime})
	}
	return rows, nil
}

// PrintAsyncSchemes renders the E4 table.
func PrintAsyncSchemes(w io.Writer, rows []E4Row) {
	fprintf(w, "E4 — async-message schemes (§2.2.4; paper adopts the interrupt)\n")
	fprintf(w, "%-16s %14s %12s %14s\n", "scheme", "lock-indirect", "barrier(8)", "jacobi 256² x8")
	for _, r := range rows {
		fprintf(w, "%-16s %14v %12v %14v\n", r.Scheme, r.LockIndirect, r.Barrier, r.Jacobi)
	}
}

// ---------------------------------------------------------------------
// E5 — ablation: rendezvous protocol (§2.2.2).
// ---------------------------------------------------------------------

// E5Row compares full preposting vs rendezvous.
type E5Row struct {
	Mode       string
	Exec       sim.Time
	PinnedMax  int64
	Rendezvous int64
}

// RendezvousAblation runs a page-transfer-heavy workload both ways.
func RendezvousAblation(nodes int) ([]E5Row, error) {
	app := &apps.FFT3D{Z: 16, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond}
	var rows []E5Row
	for _, rv := range []bool{false, true} {
		mode := "prepost-all"
		if rv {
			mode = "rendezvous"
		}
		res, err := RunApp(app, nodes, tmk.TransportFastGM, func(cfg *tmk.Config) {
			cfg.Rendezvous = rv
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, E5Row{
			Mode:       mode,
			Exec:       res.ExecTime,
			PinnedMax:  res.MaxPinnedBytes,
			Rendezvous: res.Transport.RendezvousRTS,
		})
	}
	return rows, nil
}

// PrintRendezvous renders the E5 table.
func PrintRendezvous(w io.Writer, rows []E5Row) {
	fprintf(w, "E5 — rendezvous ablation (§2.2.2: pinned memory vs overhead)\n")
	fprintf(w, "%-12s %12s %14s %12s\n", "mode", "exec", "max pinned", "RTS count")
	for _, r := range rows {
		fprintf(w, "%-12s %12v %11.2f MB %12d\n", r.Mode, r.Exec, float64(r.PinnedMax)/1e6, r.Rendezvous)
	}
}
