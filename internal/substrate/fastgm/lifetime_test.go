package fastgm

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// TestRepostReadsNothingOfTheRecv: a request's Recv is its buffer's own,
// and re-posting that buffer can accept a parked request into it at once.
// Two buffers of a large class, three requests of it, the host masked
// until all three are in: the third parks and lands in the first's buffer
// while the first is being handled. The first must still be served as
// its own request, not as the parked one. The target drains its port by
// hand, as drainAsync does, to see each request's Recv.
func TestRepostReadsNothingOfTheRecv(t *testing.T) {
	s := sim.New(1)
	sys := gm.NewSystem(s, myrinet.NewFabric(s, myrinet.DefaultParams(), 3), gm.DefaultParams())
	tr := New(sys.Node(0), 0, 3, Config{})
	var served []int
	var recvs []*gm.Recv
	s.Spawn("target", 0, func(p *sim.Proc) {
		tr.Start(p, func(p *sim.Proc, m *msg.Message) { served = append(served, len(m.PageData)) })
		p.DisableInterrupts()
		p.Advance(2 * sim.Millisecond) // all three arrive; the third parks
		for tr.asyncPort.TryPeek() {
			rv := tr.asyncPort.Poll(p)
			recvs = append(recvs, rv)
			tr.handleAsyncFrame(p, rv)
		}
		p.EnableInterrupts()
	})
	for _, sender := range []struct {
		node  myrinet.NodeID
		sizes []int
	}{{1, []int{600}}, {2, []int{700, 800}}} {
		node, sizes := sender.node, sender.sizes
		s.Spawn("sender", 0, func(p *sim.Proc) {
			port, err := sys.Node(node).OpenPort(AsyncPort)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				port.ProvideReceiveBuffer(sys.Node(node).AllocBuffer(p, 4))
			}
			out := sys.Node(node).AllocBuffer(p, 10)
			p.Advance(sim.Millisecond + sim.Time(node-1)*50*sim.Microsecond) // node 1's request first
			for i, n := range sizes {
				m := &msg.Message{Kind: msg.KPing, Seq: uint32(i + 1), From: int32(node), ReplyTo: int32(node),
					PageData: make([]byte, n)}
				frame := append([]byte{frameMsg}, m.Encode()...)
				copy(out.Bytes(), frame)
				if err := port.Send(p, 0, AsyncPort, out, len(frame), nil); err != nil {
					t.Fatal(err)
				}
				p.Advance(10 * sim.Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recvs) != 3 || recvs[2] != recvs[0] {
		t.Fatal("the parked request did not land in the first request's buffer and Recv")
	}
	if len(served) != 3 || served[0] != 600 {
		t.Errorf("served %v, want the 600-byte request first of three", served)
	}
}

// TestAbandonedSendNamesItsOwnPeer: a frame whose retries run out is
// abandoned, and its record is free for the next frame at once. The peer
// declared dead, and the attempts reported, are the abandoned frame's.
func TestAbandonedSendNamesItsOwnPeer(t *testing.T) {
	s := sim.New(1)
	sys := gm.NewSystem(s, myrinet.NewFabric(s, myrinet.DefaultParams(), 3), gm.DefaultParams())
	tr := New(sys.Node(0), 0, 3, Config{})
	s.Spawn("peer", 0, func(p *sim.Proc) {
		port, err := sys.Node(1).OpenPort(AsyncPort)
		if err != nil {
			t.Fatal(err)
		}
		port.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
	})
	s.Spawn("sender", 0, func(p *sim.Proc) {
		tr.Start(p, func(*sim.Proc, *msg.Message) {})
		// Rank 2 never opens its port: the frame is unroutable, GM's resend
		// timeout fails every attempt, each followed by a port resume and a
		// backoff, and once its retries run out it is abandoned.
		tr.stage(p, 2, AsyncPort, frameMsg, []byte("lost"), 0)
		gmp := sys.Params()
		p.Advance((MaxSendRetries + 1) * (gmp.ResendTimeout + gmp.ResumeCost + RetryBackoffMax))
		if len(tr.freeSends) != 1 {
			t.Fatalf("%d free send records after the abandonment, want its one", len(tr.freeSends))
		}
		abandoned := tr.freeSends[0]
		want := substrate.PeerUnreachableError{Rank: 0, Peer: 2, Attempts: MaxSendRetries + 1, Kind: "retry-exhausted"}
		if f := tr.PeerFailure(); f == nil || *f != want || !tr.Live.Dead(2) || tr.Live.Dead(1) {
			t.Errorf("failure %+v, dead 1/2 = %v/%v; want %+v and only rank 2 dead",
				f, tr.Live.Dead(1), tr.Live.Dead(2), want)
		}
		tr.stage(p, 1, AsyncPort, frameMsg, []byte("next"), 0)
		if len(tr.freeSends) != 0 || abandoned.dst != 1 {
			t.Error("the next frame did not reuse the abandoned frame's record")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
