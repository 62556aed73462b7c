package harness

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/rdmagm"
	"repro/internal/substrate/udpgm"
	"repro/internal/tmk"
)

// Incast sweep (DESIGN.md §14): the barrier-arrival fan-in at cluster
// scale — every peer blasts a burst of largest-class one-way frames at
// rank 0 while it is briefly masked — run on all three substrates with
// credit flow control on, and held to the overload invariants:
//
//  1. Delivery: every frame of the storm is serviced.
//  2. Absorption: the pressure shows up as local credit stalls at the
//     senders (CreditStalls > 0), not as receiver-side losses — zero
//     frames parked on an exhausted GM prepost ring, zero kernel
//     datagram drops on UDP/GM.
//  3. No fail-stop: zero GM send timeouts and zero ports left disabled —
//     the 3 s resend-timeout → port-disable countdown the paper's
//     preposting discipline exists to preclude never starts.

// IncastSpec configures the incast storm.
type IncastSpec struct {
	Nodes   int      // cluster size; Nodes−1 senders target rank 0
	PerPeer int      // frames per sender
	Payload int      // bytes per frame (the largest preposted class)
	Mask    sim.Time // how long rank 0 defers servicing while the storm lands
	Seed    int64
}

// DefaultIncastSpec returns the acceptance scenario: a 64-node storm.
func DefaultIncastSpec() IncastSpec {
	return IncastSpec{Nodes: 64, PerPeer: 6, Payload: 16000, Mask: 20 * sim.Millisecond, Seed: 1}
}

// incastFamilies lists the substrate families under test, baseline first.
var incastFamilies = []string{"udpgm", "fastgm", "rdmagm"}

// incastRow is one family's storm outcome.
type incastRow struct {
	family    string
	delivered int
	execTime  sim.Time
	stats     substrate.Stats
	parked    int64
	timeouts  int64
	disabled  int
	drops     int64
}

// runIncast builds a flow-controlled cluster of one substrate family and
// drives the storm through it.
func runIncast(family string, spec IncastSpec) (*incastRow, error) {
	n := spec.Nodes
	s := sim.New(spec.Seed)
	fab := myrinet.NewFabric(s, myrinet.DefaultParams(), n)
	g := gm.NewSystem(s, fab, gm.DefaultParams())
	pol := substrate.Policy{Flow: true}
	trs := make([]substrate.Transport, n)
	var stacks []*sockets.Stack
	switch family {
	case "udpgm":
		stacks = make([]*sockets.Stack, n)
		for i := 0; i < n; i++ {
			stacks[i] = sockets.NewStack(s, g.Node(myrinet.NodeID(i)), sockets.DefaultParams())
			trs[i] = udpgm.New(stacks[i], i, n, pol, udpgm.DefaultConfig())
		}
	case "fastgm":
		for i := 0; i < n; i++ {
			trs[i] = fastgm.New(g.Node(myrinet.NodeID(i)), i, n, pol, fastgm.DefaultConfig())
		}
	case "rdmagm":
		for i := 0; i < n; i++ {
			trs[i] = rdmagm.New(g.Node(myrinet.NodeID(i)), i, n, pol, fastgm.DefaultConfig())
		}
	default:
		return nil, fmt.Errorf("incast: unknown substrate family %q", family)
	}

	total := (n - 1) * spec.PerPeer
	received := 0
	var start, end sim.Time
	started, finished := 0, 0
	startCond := sim.NewCond("incast:start")
	finCond := sim.NewCond("incast:finish")
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("rank%d", i), 0, func(p *sim.Proc) {
			trs[i].Start(p, func(hp *sim.Proc, m *msg.Message) { received++ })
			started++
			startCond.Broadcast()
			for started < n {
				p.WaitOn(startCond)
			}
			if i == 0 {
				start = p.Now()
				trs[0].DisableAsync(p)
				p.Advance(spec.Mask)
				trs[0].EnableAsync(p)
				for received < total {
					p.Advance(sim.Millisecond)
				}
				end = p.Now()
			} else {
				p.Advance(sim.Millisecond)
				body := bytes.Repeat([]byte{byte(i)}, spec.Payload)
				for k := 0; k < spec.PerPeer; k++ {
					trs[i].Send(p, 0, &msg.Message{Kind: msg.KPing, PageData: body})
				}
			}
			finished++
			finCond.Broadcast()
			for finished < n {
				p.WaitOn(finCond)
			}
			trs[i].Shutdown(p)
		})
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("incast %s: %w", family, err)
	}

	row := &incastRow{family: family, delivered: received, execTime: end - start}
	for _, tr := range trs {
		row.stats.Add(tr.Stats())
	}
	for i := 0; i < n; i++ {
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if p := g.Node(myrinet.NodeID(i)).Port(id); p != nil {
				ps := p.Stats()
				row.parked += ps.Parked
				row.timeouts += ps.Timeouts
				if !p.Enabled() {
					row.disabled++
				}
			}
		}
	}
	for _, st := range stacks {
		row.drops += st.Stats().DatagramsDrop
	}
	return row, nil
}

// Incast runs the storm on every substrate family and writes a report.
// It returns an error on the first violated invariant.
func Incast(w io.Writer, spec IncastSpec) error {
	total := (spec.Nodes - 1) * spec.PerPeer
	fprintf(w, "Incast storm: %d senders → rank 0, %d × %dB frames each, %v mask, credit flow ON\n\n",
		spec.Nodes-1, spec.PerPeer, spec.Payload, spec.Mask)
	fprintf(w, "%-8s %12s %7s %8s %8s %8s %7s %6s %6s %9s\n",
		"family", "time", "frames", "stalls", "creturn", "refills", "parked", "tmout", "sdrop", "disabled")

	for _, family := range incastFamilies {
		row, err := runIncast(family, spec)
		if err != nil {
			return err
		}
		fprintf(w, "%-8s %12v %7d %8d %8d %8d %7d %6d %6d %9d\n",
			row.family, row.execTime, row.delivered, row.stats.CreditStalls,
			row.stats.CreditReturnsSent, row.stats.CreditRefills,
			row.parked, row.timeouts, row.drops, row.disabled)

		if row.delivered != total {
			return fmt.Errorf("incast %s: delivered %d of %d frames", family, row.delivered, total)
		}
		if row.stats.CreditStalls == 0 {
			return fmt.Errorf("incast %s: storm never exhausted a credit window (weak scenario)", family)
		}
		if row.timeouts != 0 {
			return fmt.Errorf("incast %s: %d GM send timeouts under flow control (fail-stop condition)",
				family, row.timeouts)
		}
		if row.disabled != 0 {
			return fmt.Errorf("incast %s: %d GM ports left disabled", family, row.disabled)
		}
		if family == "udpgm" {
			if row.drops != 0 {
				return fmt.Errorf("incast %s: receiver socket dropped %d datagrams despite the credit window",
					family, row.drops)
			}
		} else if row.parked != 0 {
			return fmt.Errorf("incast %s: %d frames parked on an exhausted prepost ring despite credits",
				family, row.parked)
		}
	}
	fprintf(w, "\nstorm absorbed at the senders: every frame delivered, zero parked frames / socket\n")
	fprintf(w, "drops / GM timeouts / disabled ports — the overload lives in CreditStalls only\n")
	return nil
}

// BenchFlow captures the overload-resilience machinery's cost on a clean
// fabric: one application per substrate with flow control + hedging
// armed, next to the stock baseline (the same numbers the e-suites see,
// so the gate holds both sides). Both sides are plain runs, so a row's
// on-cost is the mechanism's alone; TestFeatureMatrix verifies the armed
// configurations.
func BenchFlow() (*BenchSuite, error) {
	app := chaosApps()[0]
	const nodes = 4
	const seed = 1
	s := &BenchSuite{Schema: BenchSchema, Suite: "flow"}
	for _, kind := range AllTransports {
		plain, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) { cfg.Seed = seed })
		if err != nil {
			return nil, err
		}
		armed, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) {
			cfg.Seed = seed
			cfg.Flow = true
			cfg.Hedge = true
		})
		if err != nil {
			return nil, fmt.Errorf("flow bench (%s): %w", kind, err)
		}
		s.Entries = append(s.Entries,
			BenchEntry{Name: "Baseline/" + app.Name(), Transport: string(kind), Nodes: nodes, Value: int64(plain.ExecTime), Unit: "ns"},
			BenchEntry{Name: "FlowHedge/" + app.Name(), Transport: string(kind), Nodes: nodes, Value: int64(armed.ExecTime), Unit: "ns"},
		)
	}
	return s, nil
}
