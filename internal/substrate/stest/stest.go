// Package stest provides a miniature cluster harness for exercising
// substrate.Transport implementations in tests: it wires up the fabric,
// GM, (for UDP) the kernel socket stacks, and one simulated process per
// rank, with a startup rendezvous so no traffic flows before every
// transport has preposted its buffers.
package stest

import (
	"bytes"
	"fmt"

	"repro/internal/gm"
	"repro/internal/msg"
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
	c := newBase(n, seed)
	c.Stacks = make([]*sockets.Stack, n)
	for i := 0; i < n; i++ {
		c.Stacks[i] = sockets.NewStack(c.Sim, c.GM.Node(myrinet.NodeID(i)))
		c.Transports[i] = udpgm.New(c.Stacks[i], i, n)
	}
	return c
}

// NewFast builds an n-rank cluster on the FAST/GM transport.
func NewFast(n int, seed int64, cfg fastgm.Config) *Cluster {
	c := newBase(n, seed)
	for i := 0; i < n; i++ {
		c.Transports[i] = fastgm.New(c.GM.Node(myrinet.NodeID(i)), i, n, cfg)
	}
	return c
}

// NewRDMA builds an n-rank cluster on the RDMA/GM one-sided transport,
// its two-sided half configured by fast.
func NewRDMA(n int, seed int64, fast fastgm.Config) *Cluster {
	c := newBase(n, seed)
	for i := 0; i < n; i++ {
		c.Transports[i] = rdmagm.New(c.GM.Node(myrinet.NodeID(i)), i, n, fast)
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

// ContinuedReply is one writer's reply continued across frames (DESIGN.md
// §4.3): frame f holds two diffs of size bytes each, every byte derived
// from the writer, the frame and the diff, so a reply spliced out of order
// or missing a frame reads wrong. Its storage is made once: serving it
// allocates nothing.
type ContinuedReply struct {
	frames [][]msg.Diff
	rep    msg.Message
}

// NewContinuedReply returns writer rank's reply of up to frames frames.
func NewContinuedReply(rank, frames, size int) *ContinuedReply {
	cr := &ContinuedReply{}
	for f := 0; f < frames; f++ {
		var ds []msg.Diff
		for k := 0; k < 2; k++ {
			d := msg.Diff{Page: int32(10*f + k), Proc: int32(rank), TS: int32(f + 1), Data: make([]byte, size)}
			for i := range d.Data {
				d.Data[i] = byte(31*rank + 7*f + 3*k + i)
			}
			ds = append(ds, d)
		}
		cr.frames = append(cr.frames, ds)
	}
	return cr
}

// Serve answers request m on tr with the first frames frames of the
// reply, one Reply per frame, in order.
func (cr *ContinuedReply) Serve(p *sim.Proc, tr substrate.Transport, m *msg.Message, frames int) {
	for f := 0; f < frames; f++ {
		cr.rep = msg.Message{Kind: msg.KDiffReply, Diffs: cr.frames[f]}
		cr.rep.SetFrame(f, frames)
		tr.Reply(p, m, &cr.rep)
	}
}

// Check reports whether rep holds the diffs of the reply's first frames
// frames, in frame order, as if it had been one frame.
func (cr *ContinuedReply) Check(rep *msg.Message, frames int) error {
	if rep == nil || rep.Kind != msg.KDiffReply {
		return fmt.Errorf("reply %+v, want a diff reply", rep)
	}
	i := 0
	for _, ds := range cr.frames[:frames] {
		for _, w := range ds {
			if i == len(rep.Diffs) {
				return fmt.Errorf("%d diffs, want %d", i, 2*frames)
			}
			if d := rep.Diffs[i]; d.Page != w.Page || d.Proc != w.Proc || d.TS != w.TS || !bytes.Equal(d.Data, w.Data) {
				return fmt.Errorf("diff %d is page %d of rank %d at ts %d, want page %d of rank %d at ts %d, or its data differs",
					i, d.Page, d.Proc, d.TS, w.Page, w.Proc, w.TS)
			}
			i++
		}
	}
	if i != len(rep.Diffs) {
		return fmt.Errorf("%d diffs, want %d", len(rep.Diffs), i)
	}
	return nil
}
