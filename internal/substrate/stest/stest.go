// Package stest provides a miniature cluster harness for exercising
// substrate.Transport implementations in tests: it wires up the fabric,
// GM, (for UDP) the kernel socket stacks, and one simulated process per
// rank, with a startup rendezvous so no traffic flows before every
// transport has preposted its buffers.
package stest

import (
	"fmt"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/rdmagm"
	"repro/internal/substrate/udpgm"
)

// Cluster bundles the simulation state for n ranks.
type Cluster struct {
	Sim        *sim.Simulator
	Fabric     *myrinet.Fabric
	GM         *gm.System
	Stacks     []*sockets.Stack
	Transports []substrate.Transport
}

// NewUDP builds an n-rank cluster on the UDP/GM transport.
func NewUDP(n int, seed int64) *Cluster {
	return NewUDPConfig(n, seed, substrate.Policy{}, udpgm.DefaultConfig())
}

// NewUDPConfig builds an n-rank UDP/GM cluster under an explicit policy
// (liveness, flow, hedging) and transport configuration (retry budget, ...).
func NewUDPConfig(n int, seed int64, pol substrate.Policy, cfg udpgm.Config) *Cluster {
	c := newBase(n, seed)
	c.Stacks = make([]*sockets.Stack, n)
	for i := 0; i < n; i++ {
		c.Stacks[i] = sockets.NewStack(c.Sim, c.GM.Node(myrinet.NodeID(i)), sockets.DefaultParams())
		c.Transports[i] = udpgm.New(c.Stacks[i], i, n, pol, cfg)
	}
	return c
}

// NewFast builds an n-rank cluster on the FAST/GM transport.
func NewFast(n int, seed int64, pol substrate.Policy, cfg fastgm.Config) *Cluster {
	c := newBase(n, seed)
	for i := 0; i < n; i++ {
		c.Transports[i] = fastgm.New(c.GM.Node(myrinet.NodeID(i)), i, n, pol, cfg)
	}
	return c
}

// NewRDMA builds an n-rank cluster on the RDMA/GM one-sided transport,
// its two-sided half configured by fast.
func NewRDMA(n int, seed int64, pol substrate.Policy, fast fastgm.Config) *Cluster {
	c := newBase(n, seed)
	for i := 0; i < n; i++ {
		c.Transports[i] = rdmagm.New(c.GM.Node(myrinet.NodeID(i)), i, n, pol, fast)
	}
	return c
}

func newBase(n int, seed int64) *Cluster {
	s := sim.New(seed)
	f := myrinet.NewFabric(s, myrinet.DefaultParams(), n)
	return &Cluster{
		Sim:        s,
		Fabric:     f,
		GM:         gm.NewSystem(s, f, gm.DefaultParams()),
		Transports: make([]substrate.Transport, n),
	}
}

// Spawn launches one process per rank. Each process installs handler,
// waits until every rank has started (so preposting is complete cluster-
// wide), runs body, and participates in a shutdown rendezvous.
func (c *Cluster) Spawn(handler func(rank int) substrate.Handler,
	body func(rank int, p *sim.Proc, t substrate.Transport)) {
	n := len(c.Transports)
	started := 0
	startCond := sim.NewCond("stest:start")
	finished := 0
	finCond := sim.NewCond("stest:finish")
	for i := 0; i < n; i++ {
		i := i
		c.Sim.Spawn(fmt.Sprintf("rank%d", i), 0, func(p *sim.Proc) {
			c.Transports[i].Start(p, handler(i))
			started++
			startCond.Broadcast()
			for started < n {
				p.WaitOn(startCond)
			}
			body(i, p, c.Transports[i])
			finished++
			finCond.Broadcast()
			// Keep serving asynchronous requests until everyone is done.
			for finished < n {
				p.WaitOn(finCond)
			}
			c.Transports[i].Shutdown(p)
		})
	}
}

// Run executes the simulation to quiescence.
func (c *Cluster) Run() error { return c.Sim.Run() }
