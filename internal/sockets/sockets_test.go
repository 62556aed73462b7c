package sockets

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// testNet builds n nodes each with a kernel UDP stack.
func testNet(t *testing.T, n int) (*sim.Simulator, []*Stack) {
	t.Helper()
	s := sim.New(1)
	fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), n)
	sys := gm.NewSystem(s, fabric, gm.DefaultParams())
	stacks := make([]*Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = NewStack(s, sys.Node(myrinet.NodeID(i)), DefaultParams())
	}
	return s, stacks
}

func TestSendToRecvFrom(t *testing.T) {
	s, st := testNet(t, 2)
	var got []byte
	var src myrinet.NodeID
	var srcPort int
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1500)
		n, from, fromPort, err := sk.RecvFrom(p, buf)
		if err != nil {
			t.Fatal(err)
		}
		got, src, srcPort = buf[:n], from, fromPort
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		if err := sk.Bind(p, 6000); err != nil {
			t.Fatal(err)
		}
		if err := sk.SendTo(p, 1, 7000, []byte("udp over gm"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "udp over gm" {
		t.Errorf("got %q", got)
	}
	if src != 0 || srcPort != 6000 {
		t.Errorf("src=%d srcPort=%d", src, srcPort)
	}
}

func TestUDPLatencyMatchesPaper(t *testing.T) {
	s, st := testNet(t, 2)
	var sentAt, gotAt sim.Time
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, _, _, err := sk.RecvFrom(p, buf); err != nil {
			t.Fatal(err)
		}
		gotAt = p.Now()
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Micro(100))
		sentAt = p.Now()
		if err := sk.SendTo(p, 1, 7000, []byte{1}, 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lat := gotAt - sentAt
	// Paper-era UDP over Myrinet: ≈35 µs one-way (vs GM's 8.99 µs).
	if lat < sim.Micro(30) || lat > sim.Micro(42) {
		t.Errorf("UDP 1-byte latency = %v, want ≈35µs", lat)
	}
}

func TestOverflowDropsDatagrams(t *testing.T) {
	s, st := testNet(t, 2)
	const msg = 1000
	const count = 200 // 200 KB into a 64 KB socket buffer, reader asleep
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		p.Advance(sim.Second) // sleep while the sender floods
		buf := make([]byte, msg)
		for sk.Pending() > 0 {
			if _, _, _, err := sk.RecvFrom(p, buf); err != nil {
				t.Fatal(err)
			}
		}
		if sk.Drops() == 0 {
			t.Error("no drops despite 3× overflow")
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		data := make([]byte, msg)
		for i := 0; i < count; i++ {
			if err := sk.SendTo(p, 1, 7000, data, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	recvd := st[1].Stats().DatagramsRecvd
	drops := st[1].Stats().DatagramsDrop
	if recvd+drops != count {
		t.Errorf("recvd %d + drops %d != %d sent", recvd, drops, count)
	}
	if recvd > 70 { // ≈64 buffer capacity worth
		t.Errorf("recvd %d, expected ≈64 (buffer capacity)", recvd)
	}
}

func TestUnboundPortDropsSilently(t *testing.T) {
	s, st := testNet(t, 2)
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		if err := sk.SendTo(p, 1, 9999, []byte("void"), 0); err != nil {
			t.Fatal(err)
		}
		p.Advance(sim.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st[1].Stats().DatagramsNoSock != 1 {
		t.Errorf("DatagramsNoSock = %d", st[1].Stats().DatagramsNoSock)
	}
}

func TestSIGIODelivery(t *testing.T) {
	s, st := testNet(t, 2)
	var handled []string
	var handlerAt sim.Time
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		p.SetInterruptHandler(func(p *sim.Proc, payload any) {
			p.Advance(SignalDelivery)
			sock := payload.(*Socket)
			buf := make([]byte, 256)
			for {
				n, _, _, _, ok := sock.TryRecvFrom(p, buf)
				if !ok {
					break
				}
				handled = append(handled, string(buf[:n]))
				handlerAt = p.Now()
			}
		})
		sk.SetSIGIO(p)
		p.Advance(10 * sim.Millisecond) // compute; SIGIO interrupts it
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Millisecond)
		if err := sk.SendTo(p, 1, 7000, []byte("request"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 1 || handled[0] != "request" {
		t.Errorf("handled = %q", handled)
	}
	if handlerAt < sim.Millisecond || handlerAt > 2*sim.Millisecond {
		t.Errorf("handler ran at %v", handlerAt)
	}
	if st[1].Stats().SigiosRaised != 1 {
		t.Errorf("SigiosRaised = %d", st[1].Stats().SigiosRaised)
	}
}

func TestSelect(t *testing.T) {
	s, st := testNet(t, 2)
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk1 := st[1].Socket(p)
		sk2 := st[1].Socket(p)
		if err := sk1.Bind(p, 7001); err != nil {
			t.Fatal(err)
		}
		if err := sk2.Bind(p, 7002); err != nil {
			t.Fatal(err)
		}
		idx := Select(p, []*Socket{sk1, sk2}, sim.Infinity)
		if idx != 1 {
			t.Errorf("Select = %d, want 1", idx)
		}
		// Timeout path: nothing else arrives.
		idx = Select(p, []*Socket{sk1}, p.Now()+sim.Millisecond)
		if idx != -1 {
			t.Errorf("Select timeout = %d, want -1", idx)
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Millisecond)
		if err := sk.SendTo(p, 1, 7002, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBindRules(t *testing.T) {
	s, st := testNet(t, 1)
	s.Spawn("p", 0, func(p *sim.Proc) {
		a := st[0].Socket(p)
		b := st[0].Socket(p)
		if err := a.Bind(p, 5000); err != nil {
			t.Fatal(err)
		}
		if err := b.Bind(p, 5000); err != ErrPortInUse {
			t.Errorf("double bind err = %v", err)
		}
		eph := b.BindEphemeral(p)
		if eph < 49152 {
			t.Errorf("ephemeral port %d", eph)
		}
		buf := make([]byte, 10)
		c := st[0].Socket(p)
		if _, _, _, err := c.RecvFrom(p, buf); err != ErrNotBound {
			t.Errorf("recv unbound err = %v", err)
		}
		c.Close(p)
		if err := c.SendTo(p, 0, 5000, []byte("x"), 0); err != ErrNoSuchSocket {
			t.Errorf("send closed err = %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	s, st := testNet(t, 1)
	s.Spawn("p", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		big := make([]byte, MaxDatagram+1)
		if err := sk.SendTo(p, 0, 5000, big, 0); err != ErrTooLarge {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeDatagramRoundTrip(t *testing.T) {
	s, st := testNet(t, 2)
	size := MaxDatagram
	var got int
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		n, _, _, err := sk.RecvFrom(p, buf)
		if err != nil {
			t.Fatal(err)
		}
		got = n
		for i := 0; i < n; i += 997 {
			if buf[i] != byte(i*13) {
				t.Fatalf("corruption at %d", i)
			}
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 13)
		}
		if err := sk.SendTo(p, 1, 7000, data, 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != size {
		t.Errorf("got %d bytes, want %d", got, size)
	}
}

func TestLargeTransferSlowerThanGM(t *testing.T) {
	// The kernel copies make 32 KB UDP transfers markedly slower than raw
	// GM; this is the root of the paper's Page microbenchmark gap.
	s, st := testNet(t, 2)
	size := MaxDatagram
	var sentAt, gotAt sim.Time
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		if _, _, _, err := sk.RecvFrom(p, buf); err != nil {
			t.Fatal(err)
		}
		gotAt = p.Now()
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Micro(50))
		sentAt = p.Now()
		if err := sk.SendTo(p, 1, 7000, make([]byte, size), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lat := gotAt - sentAt
	// GM moves 32 KB in ≈150 µs; UDP adds ≈160 µs of copies + processing.
	if lat < sim.Micro(250) {
		t.Errorf("32 KB UDP latency = %v, implausibly fast", lat)
	}
}

func TestTryRecvFrom(t *testing.T) {
	s, st := testNet(t, 2)
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if _, _, _, _, ok := sk.TryRecvFrom(p, buf); ok {
			t.Error("TryRecvFrom returned data from empty queue")
		}
		p.Advance(5 * sim.Millisecond)
		n, _, _, _, ok := sk.TryRecvFrom(p, buf)
		if !ok || string(buf[:n]) != "later" {
			t.Errorf("TryRecvFrom after arrival: ok=%v data=%q", ok, buf[:n])
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Millisecond)
		if err := sk.SendTo(p, 1, 7000, []byte("later"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvTruncation(t *testing.T) {
	s, st := testNet(t, 2)
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		n, _, _, err := sk.RecvFrom(p, buf)
		if err != nil || n != 4 || string(buf) != "trun" {
			t.Errorf("n=%d buf=%q err=%v", n, buf, err)
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		if err := sk.SendTo(p, 1, 7000, []byte("truncate me"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManySmallDatagramsKeepOrder(t *testing.T) {
	s, st := testNet(t, 2)
	const count = 40
	var seen []byte
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		sk.SetRecvBuffer(p, 1<<20)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		for i := 0; i < count; i++ {
			n, _, _, err := sk.RecvFrom(p, buf)
			if err != nil || n != 1 {
				t.Fatalf("recv %d: n=%d err=%v", i, n, err)
			}
			seen = append(seen, buf[0])
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		for i := 0; i < count; i++ {
			if err := sk.SendTo(p, 1, 7000, []byte{byte(i)}, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != byte(i) {
			t.Fatalf("reordered: %v", seen)
		}
	}
}

func TestSIGIODisarm(t *testing.T) {
	s, st := testNet(t, 2)
	sigios := 0
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		p.SetInterruptHandler(func(p *sim.Proc, payload any) {
			sigios++
			buf := make([]byte, 64)
			payload.(*Socket).TryRecvFrom(p, buf)
		})
		sk.SetSIGIO(p)
		p.Advance(2 * sim.Millisecond)
		sk.SetSIGIO(nil) // disarm
		p.Advance(3 * sim.Millisecond)
		if sk.Pending() != 1 {
			t.Errorf("pending = %d after disarm, want 1 queued silently", sk.Pending())
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		p.Advance(sim.Millisecond)
		if err := sk.SendTo(p, 1, 7000, []byte("a"), 0); err != nil {
			t.Fatal(err)
		}
		p.Advance(2 * sim.Millisecond) // after disarm at 2ms
		if err := sk.SendTo(p, 1, 7000, []byte("b"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sigios != 1 {
		t.Errorf("sigios = %d, want 1", sigios)
	}
}

func TestDropProbabilityInjectsLoss(t *testing.T) {
	s := sim.New(7)
	fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), 2)
	sys := gm.NewSystem(s, fabric, gm.DefaultParams())
	params := DefaultParams()
	params.DropProbability = 0.5
	stacks := []*Stack{
		NewStack(s, sys.Node(0), DefaultParams()),
		NewStack(s, sys.Node(1), params),
	}
	s.Spawn("recv", 0, func(p *sim.Proc) {
		sk := stacks[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		p.Advance(50 * sim.Millisecond)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		sk := stacks[0].Socket(p)
		for i := 0; i < 100; i++ {
			if err := sk.SendTo(p, 1, 7000, []byte{byte(i)}, 0); err != nil {
				t.Fatal(err)
			}
			p.Advance(sim.Micro(100))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	drops := stacks[1].Stats().DatagramsDrop
	if drops < 25 || drops > 75 {
		t.Errorf("drops = %d of 100 at p=0.5", drops)
	}
}

// TestDatagramAllocatesNothing: a SendTo→RecvFrom ping-pong costs the host
// no allocation once the stack's records are warm — the datagram is staged
// straight into a kernel tx buffer, the arrival record and its bytes are
// recycled, and every completion is bound once.
func TestDatagramAllocatesNothing(t *testing.T) {
	s, st := testNet(t, 2)
	const size = 1000
	var allocs float64
	s.Spawn("measured", 0, func(p *sim.Proc) {
		sk := st[0].Socket(p)
		if err := sk.Bind(p, 6000); err != nil {
			t.Fatal(err)
		}
		data, buf := make([]byte, size), make([]byte, size)
		p.Advance(sim.Millisecond) // the partner has bound
		roundTrip := func() {
			if err := sk.SendTo(p, 1, 7000, data, 0); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := sk.RecvFrom(p, buf); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			roundTrip()
		}
		allocs = testing.AllocsPerRun(100, roundTrip)
		if err := sk.SendTo(p, 1, 7000, data[:1], 0); err != nil { // stop
			t.Fatal(err)
		}
	})
	s.Spawn("partner", 0, func(p *sim.Proc) {
		sk := st[1].Socket(p)
		if err := sk.Bind(p, 7000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		for {
			n, _, _, err := sk.RecvFrom(p, buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 1 {
				return
			}
			if err := sk.SendTo(p, 0, 6000, buf[:n], 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("allocations per SendTo→RecvFrom round trip = %v, want 0", allocs)
	}
}
