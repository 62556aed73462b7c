package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/gm"
	"repro/internal/harness"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

// The layer probe times calls into each layer's public functions on a
// stack built only up to that layer, and reads the gated suites' virtual
// numbers (BENCH_e0 / BENCH_e1 configurations) through the same exported
// entry points the gate uses. It is workload-independent and reported
// once. A probe number that improves while no workload's end-to-end
// metric moves is not a win (README.md).

const probeBatches = 5 // host timings are the median of this many batches

// hostPerOp runs batch — which performs ops operations — probeBatches
// times and returns the median host nanoseconds and heap allocations per
// operation.
func hostPerOp(ops int, batch func()) (ns, allocs float64) {
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < probeBatches; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		batch()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(ops))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return quartiles(nss)[1], quartiles(als)[1]
}

// runProbe is the body of the probe child.
func runProbe(emit func(event)) outcome {
	out := outcome{Name: probeName}
	var add adder = func(name, unit string, v float64) {
		out.PerLayer = append(out.PerLayer, row{Name: name, Unit: unit, Value: v})
	}
	steps := []func(adder) error{
		probeSim, probeMyrinet, probeGM, probeNetperf, probeUbench, probeDiffs, probeMsg, probeBoot,
	}
	emit(event{Plan: len(steps)})
	for _, step := range steps {
		out.Attempted++
		err := step(add)
		ev := event{Run: "probe"}
		if err != nil {
			out.Failed++
			ev.Err = err.Error()
			out.Errors = append(out.Errors, "probe: "+ev.Err)
		}
		emit(ev)
	}
	return out
}

// adder reports one probe metric.
type adder func(name, unit string, v float64)

// probeSim: the scheduler alone. Two processes hand control back and
// forth over condition variables; a timer callback re-arms itself.
func probeSim(add adder) error {
	const switches, timers = 20000, 100000
	var runErr error
	ns, allocs := hostPerOp(switches, func() {
		s := sim.New(1)
		conds := [2]*sim.Cond{sim.NewCond("probe:a"), sim.NewCond("probe:b")}
		turn := 0
		for me := 0; me < 2; me++ {
			me := me
			s.Spawn(fmt.Sprintf("probe%d", me), 0, func(p *sim.Proc) {
				for i := 0; i < switches/2; i++ {
					for turn != me {
						p.WaitOn(conds[me])
					}
					turn = 1 - me
					conds[1-me].Signal()
				}
			})
		}
		if err := s.Run(); err != nil {
			runErr = err
		}
	})
	add("sim.switch_host_ns", "ns", ns)
	add("sim.switch_allocs", "count", allocs)
	ns, _ = hostPerOp(timers, func() {
		s := sim.New(1)
		left := timers
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(sim.Microsecond, tick)
			}
		}
		s.After(sim.Microsecond, tick)
		if err := s.Run(); err != nil {
			runErr = err
		}
	})
	add("sim.timer_host_ns", "ns", ns)
	return runErr
}

// probeMyrinet: scheduler + fabric. One NIC sends 4 KB packets to the
// other; each delivery triggers the next send.
func probeMyrinet(add adder) error {
	const packets = 20000
	var runErr error
	ns, _ := hostPerOp(packets, func() {
		s := sim.New(1)
		fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), 2)
		pkt := &myrinet.Packet{Src: 0, Dst: 1, NumFrags: 1, MsgLen: 4096, Payload: make([]byte, 4096)}
		left := packets
		send := func() { fabric.NIC(0).SendPacket(pkt) }
		fabric.NIC(1).SetHandler(func(*myrinet.Packet) {
			if left--; left > 0 {
				send()
			}
		})
		s.After(0, send)
		if err := s.Run(); err != nil {
			runErr = err
		}
	})
	add("myrinet.packet_host_ns", "ns", ns)
	return runErr
}

// probeGM: scheduler + fabric + GM. A 1-byte ping-pong between two
// ports, as harness.Netperf's raw-GM row does it.
func probeGM(add adder) error {
	const roundTrips = 2000
	var runErr error
	ns, _ := hostPerOp(roundTrips, func() {
		s := sim.New(1)
		sys := gm.NewSystem(s, myrinet.NewFabric(s, myrinet.DefaultParams(), 2), gm.DefaultParams())
		var ports [2]*gm.Port
		for i := range ports {
			p, err := sys.Node(myrinet.NodeID(i)).OpenPort(2)
			if err != nil {
				runErr = err
				return
			}
			ports[i] = p
		}
		for me := 0; me < 2; me++ {
			me := me
			s.Spawn(fmt.Sprintf("probe%d", me), 0, func(p *sim.Proc) {
				node, port, peer := sys.Node(myrinet.NodeID(me)), ports[me], myrinet.NodeID(1-me)
				for i := 0; i < 4; i++ {
					port.ProvideReceiveBuffer(node.AllocBuffer(p, 4))
				}
				out := node.AllocBuffer(p, 4)
				p.Advance(sim.Millisecond) // both sides have posted
				for i := 0; i < roundTrips; i++ {
					if me == 0 {
						if err := port.Send(p, peer, 2, out, 1, nil); err != nil {
							runErr = err
							return
						}
					}
					port.ProvideReceiveBuffer(port.WaitRecv(p).Buffer)
					if me == 1 {
						if err := port.Send(p, peer, 2, out, 1, nil); err != nil {
							runErr = err
							return
						}
					}
				}
			})
		}
		if err := s.Run(); err != nil {
			runErr = err
		}
	})
	add("gm.pingpong_host_ns", "ns", ns)
	return runErr
}

// netperfNames maps harness.Netperf's rows (the BENCH_e0 suite) to
// metric prefixes.
var netperfNames = map[string]string{"GM": "gm", "FAST/GM": "fastgm", "UDP/GM": "udpgm"}

func probeNetperf(add adder) error {
	rows, err := harness.Netperf()
	if err != nil {
		return err
	}
	for _, r := range rows {
		prefix, ok := netperfNames[r.Layer]
		if !ok {
			return fmt.Errorf("harness.Netperf: unknown row %q", r.Layer)
		}
		add(prefix+".latency_virt_ns", "virt_ns", float64(r.Latency))
		add(prefix+".bandwidth_virt_mbps", "MB/s", r.Bandwidth/1e6)
	}
	return nil
}

// probeUbench runs the Figure 3 microbenchmarks with harness.Figure3's
// configurations (the BENCH_e1 suite), plus the same on rdmagm.
func probeUbench(add adder) error {
	type bench struct {
		name string
		run  func() (ubench.Result, error)
	}
	var benches []bench
	kinds := []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM, tmk.TransportRDMAGM}
	for _, kind := range kinds {
		kind := kind
		benches = append(benches, bench{string(kind) + ".page_virt_ns", func() (ubench.Result, error) {
			return ubench.Page(tmk.DefaultConfig(4, kind), 64)
		}})
	}
	for _, kind := range kinds {
		kind := kind
		benches = append(benches, bench{string(kind) + ".barrier8_virt_ns", func() (ubench.Result, error) {
			return ubench.Barrier(tmk.DefaultConfig(8, kind), 10)
		}})
	}
	fast := func(n int) tmk.Config { return tmk.DefaultConfig(n, tmk.TransportFastGM) }
	benches = append(benches,
		bench{"tmk.lock_direct_virt_ns", func() (ubench.Result, error) { return ubench.LockDirect(fast(4), 10) }},
		bench{"tmk.lock_indirect_virt_ns", func() (ubench.Result, error) { return ubench.LockIndirect(fast(4), 10) }},
		bench{"tmk.diff_small_virt_ns", func() (ubench.Result, error) { return ubench.Diff(fast(4), 32, false) }},
		bench{"tmk.diff_large_virt_ns", func() (ubench.Result, error) { return ubench.Diff(fast(4), 32, true) }},
		bench{"tmk.diff_4writers_virt_ns", func() (ubench.Result, error) { return ubench.DiffMultiWriter(fast(5), 16, 4) }},
	)
	for _, b := range benches {
		r, err := b.run()
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		add(b.name, "virt_ns", float64(r.Per))
	}
	return nil
}

// probeDiffs: direct calls into tmk's twin/diff code. Sparse is red-black
// SOR's pattern (every other word changed), dense is Jacobi's (one run).
func probeDiffs(add adder) error {
	const ops = 2000
	page := make([]byte, tmk.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	sparse, dense := tmk.MakeTwin(page), tmk.MakeTwin(page)
	for w := 0; w < tmk.PageSize/4; w += 2 {
		sparse[w*4]++
	}
	for i := 1024; i < 2048; i++ {
		dense[i]++
	}
	var sink []byte
	ns, _ := hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			sink = tmk.MakeTwin(page)
		}
	})
	add("tmk.make_twin_host_ns", "ns", ns)
	ns, allocs := hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			sink = tmk.EncodeDiff(page, sparse)
		}
	})
	add("tmk.encode_diff_sparse_host_ns", "ns", ns)
	add("tmk.encode_diff_allocs", "count", allocs)
	diff := sink
	ns, _ = hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			sink = tmk.EncodeDiff(page, dense)
		}
	})
	add("tmk.encode_diff_dense_host_ns", "ns", ns)
	if len(sink) != 4+1024 {
		return fmt.Errorf("dense diff encodes to %d bytes, want one 1 KB run", len(sink))
	}
	target := tmk.MakeTwin(page)
	var applyErr error
	ns, _ = hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			if err := tmk.ApplyDiff(target, diff); err != nil {
				applyErr = err
			}
		}
	})
	add("tmk.apply_diff_sparse_host_ns", "ns", ns)
	if applyErr != nil {
		return applyErr
	}
	if string(target) != string(sparse) {
		return fmt.Errorf("applying the sparse diff does not reproduce the page")
	}
	return nil
}

// probeMsg: the wire codec on a diff reply carrying one 4 KB diff.
func probeMsg(add adder) error {
	const ops = 2000
	m := &msg.Message{Kind: msg.KDiffReply, Seq: 7, From: 1, ReplyTo: 2,
		Diffs: []msg.Diff{{Page: 3, Proc: 1, TS: 9, Data: make([]byte, 4096)}}}
	var wire []byte
	ns, _ := hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			wire = m.Encode()
		}
	})
	add("msg.encode_host_ns", "ns", ns)
	var decErr error
	var back *msg.Message
	ns, allocs := hostPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			if back, decErr = msg.Decode(wire); decErr != nil {
				return
			}
		}
	})
	add("msg.decode_host_ns", "ns", ns)
	add("msg.decode_allocs", "count", allocs)
	if decErr != nil {
		return decErr
	}
	if len(back.Diffs) != 1 || len(back.Diffs[0].Data) != 4096 {
		return fmt.Errorf("diff reply does not survive Encode/Decode")
	}
	return nil
}

// probeBoot: the fixed host cost of any run — assemble a 16-node fastgm
// cluster, boot it, and cross the final barrier with an empty application.
func probeBoot(add adder) error {
	var runErr error
	ns, _ := hostPerOp(1, func() {
		if _, err := tmk.NewCluster(tmk.DefaultConfig(16, tmk.TransportFastGM)).Run(func(*tmk.Proc) {}); err != nil {
			runErr = err
		}
	})
	add("tmk.boot16_host_ms", "ms", ns/1e6)
	return runErr
}
