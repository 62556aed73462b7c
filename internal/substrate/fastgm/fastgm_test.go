package fastgm_test

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
)

func buildDefault(n int, seed int64) *stest.Cluster {
	return stest.NewFast(n, seed, fastgm.DefaultConfig())
}

func buildRendezvous(n int, seed int64) *stest.Cluster {
	cfg := fastgm.DefaultConfig()
	cfg.Rendezvous = true
	return stest.NewFast(n, seed, cfg)
}

func buildScheme(scheme fastgm.AsyncScheme) stest.Builder {
	return func(n int, seed int64) *stest.Cluster {
		cfg := fastgm.DefaultConfig()
		cfg.Scheme = scheme
		return stest.NewFast(n, seed, cfg)
	}
}

func TestConformanceInterrupt(t *testing.T) {
	stest.RunConformance(t, buildDefault)
}

func TestConformanceRendezvous(t *testing.T) {
	stest.RunConformance(t, buildRendezvous)
}

func TestConformancePollingThread(t *testing.T) {
	stest.RunConformance(t, buildScheme(fastgm.AsyncPollingThread))
}

// The timer scheme delays async service up to a full tick, so only the
// timing-insensitive conformance cases apply.
func TestConformanceTimerSubset(t *testing.T) {
	b := buildScheme(fastgm.AsyncTimer)
	t.Run("PingPong", func(t *testing.T) { stest.ConformancePingPong(t, b) })
	t.Run("ForwardedReply", func(t *testing.T) { stest.ConformanceForwardedReply(t, b) })
	t.Run("LargeMessages", func(t *testing.T) { stest.ConformanceLargeMessages(t, b) })
	t.Run("ManyToOne", func(t *testing.T) { stest.ConformanceManyToOne(t, b) })
}

func TestFastRTTBeatsUDP(t *testing.T) {
	rtt := func(c *stest.Cluster) sim.Time {
		var rtt sim.Time
		c.Spawn(
			func(rank int) substrate.Handler {
				return func(p *sim.Proc, m *msg.Message) {
					c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong})
				}
			},
			func(rank int, p *sim.Proc, tr substrate.Transport) {
				if rank != 0 {
					return
				}
				tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
				start := p.Now()
				tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
				rtt = p.Now() - start
			},
		)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return rtt
	}
	fast := rtt(buildDefault(2, 1))
	udp := rtt(stest.NewUDP(2, 1))
	if fast >= udp {
		t.Errorf("FAST RTT %v not faster than UDP RTT %v", fast, udp)
	}
	ratio := float64(udp) / float64(fast)
	// The paper's microbenchmarks see 2–3× on small synchronization
	// operations; the bare transport RTT gap should be in that region.
	if ratio < 1.8 || ratio > 5 {
		t.Errorf("UDP/FAST RTT ratio = %.2f (fast=%v udp=%v), want ≈2–4", ratio, fast, udp)
	}
}

func TestFastRTTAbsolute(t *testing.T) {
	c := buildDefault(2, 1)
	var rtt sim.Time
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
			start := p.Now()
			tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
			rtt = p.Now() - start
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// FAST/GM one-way ≈9.4µs + interrupt ≈7µs on the request side; the
	// request/reply round trip should land ≈30–45µs.
	if rtt < sim.Micro(25) || rtt > sim.Micro(50) {
		t.Errorf("FAST/GM RTT = %v, want ≈30–45µs", rtt)
	}
}

func TestRendezvousReducesPinnedMemory(t *testing.T) {
	run := func(build stest.Builder) (*stest.Cluster, int64) {
		c := build(4, 1)
		c.Spawn(
			func(rank int) substrate.Handler {
				return func(p *sim.Proc, m *msg.Message) {
					c.Transports[rank].Reply(p, m,
						&msg.Message{Kind: msg.KPong, PageData: make([]byte, 16000)})
				}
			},
			func(rank int, p *sim.Proc, tr substrate.Transport) {
				if rank == 0 {
					for peer := 1; peer < 4; peer++ {
						tr.Call(p, peer, &msg.Message{Kind: msg.KPing})
					}
				}
			},
		)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var maxPinned int64
		for i := 0; i < 4; i++ {
			if mp := c.GM.Node(0).MaxPinnedBytes(); mp > maxPinned {
				maxPinned = mp
			}
		}
		return c, maxPinned
	}
	_, pinnedFull := run(buildDefault)
	cRv, pinnedRv := run(buildRendezvous)
	if pinnedRv >= pinnedFull {
		t.Errorf("rendezvous pinned %d ≥ full preposting %d", pinnedRv, pinnedFull)
	}
	var rts int64
	for _, tr := range cRv.Transports {
		rts += tr.Stats().RendezvousRTS
	}
	if rts != 3 {
		t.Errorf("RendezvousRTS = %d, want 3 (one per 16KB reply)", rts)
	}
}

func TestRendezvousSlowerForLargeMessages(t *testing.T) {
	lat := func(build stest.Builder) sim.Time {
		c := build(2, 1)
		var d sim.Time
		c.Spawn(
			func(rank int) substrate.Handler {
				return func(p *sim.Proc, m *msg.Message) {
					c.Transports[rank].Reply(p, m,
						&msg.Message{Kind: msg.KPong, PageData: make([]byte, 16000)})
				}
			},
			func(rank int, p *sim.Proc, tr substrate.Transport) {
				if rank != 0 {
					return
				}
				tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
				start := p.Now()
				tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
				d = p.Now() - start
			},
		)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	direct := lat(buildDefault)
	rv := lat(buildRendezvous)
	if rv <= direct {
		t.Errorf("rendezvous 16KB fetch %v not slower than direct %v", rv, direct)
	}
}

func TestTimerSchemeBoundsServiceLatency(t *testing.T) {
	cfg := fastgm.DefaultConfig()
	cfg.Scheme = fastgm.AsyncTimer
	cfg.TimerInterval = 2 * sim.Millisecond
	c := stest.NewFast(2, 1, cfg)
	var served sim.Time
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				served = p.Now()
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			switch rank {
			case 0:
				p.Advance(20 * sim.Millisecond)
			case 1:
				p.Advance(sim.Millisecond)
				tr.Call(p, 0, &msg.Message{Kind: msg.KPing})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Arrived ≈1ms; must wait for a tick: served within (1ms, 1ms+2ticks].
	if served <= sim.Millisecond || served > 5*sim.Millisecond {
		t.Errorf("timer-scheme service at %v, want within two 2ms ticks", served)
	}
	if served < 2*sim.Millisecond {
		t.Errorf("served at %v, before the first possible tick", served)
	}
}

func TestPollingThreadScalesCompute(t *testing.T) {
	cfg := fastgm.DefaultConfig()
	cfg.Scheme = fastgm.AsyncPollingThread
	cfg.PollComputeScale = 1.5
	c := stest.NewFast(2, 1, cfg)
	var end sim.Time
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			start := p.Now()
			p.Advance(10 * sim.Millisecond)
			end = p.Now() - start
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*sim.Millisecond {
		t.Errorf("scaled compute = %v, want 15ms (1.5×10ms)", end)
	}
}

func TestNoTimeoutsUnderLoad(t *testing.T) {
	// The preposting strategy exists so GM's no-buffer timeout can never
	// fire. Hammer one rank from all others and assert no parked messages
	// expired and no ports were disabled.
	const n = 8
	c := buildDefault(n, 1)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank == 0 {
				p.Advance(50 * sim.Millisecond)
				return
			}
			for i := 0; i < 50; i++ {
				tr.Call(p, 0, &msg.Message{Kind: msg.KPing, Page: int32(i)})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		node := c.GM.Node(0)
		_ = node
		for port := 2; port <= 3; port++ {
			pp := c.GM.Node(0).Port(port)
			if pp != nil && !pp.Enabled() {
				t.Errorf("node %d port %d disabled", i, port)
			}
			if pp != nil && pp.Stats().Timeouts > 0 {
				t.Errorf("node %d port %d timeouts: %d", i, port, pp.Stats().Timeouts)
			}
		}
	}
}
