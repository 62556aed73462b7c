package fastgm_test

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
)

func echoHandler(c *stest.Cluster) func(rank int) substrate.Handler {
	return func(rank int) substrate.Handler {
		return func(p *sim.Proc, m *msg.Message) {
			c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page})
		}
	}
}

// TestRetryBudgetResetsAfterSendOK: two disjoint blackout windows, each
// sized to consume exactly the full per-frame retry budget
// (MaxSendRetries = 1: the original send fails, the single retransmission
// lands after the window closes). Both calls must succeed — the attempt
// counter belongs to the frame and is discarded on SendOK, so the first
// window's failure must not erode the second call's budget. A counter
// that leaked across sends would exhaust on the second window's first
// failure and abandon the call.
func TestRetryBudgetResetsAfterSendOK(t *testing.T) {
	cfg := fastgm.DefaultConfig()
	cfg.MaxSendRetries = 1
	c := stest.NewFast(2, 1, cfg)
	// GM's resend timeout is 3s: a frame sent at ~2ms into a window ending
	// at 3s fails once (~3.002s) and its 5ms-backoff retransmission clears
	// the window. Same shape again at 10s.
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: 0, Dst: 1, From: sim.Millisecond, To: 3 * sim.Second},
		{Src: 0, Dst: 1, From: 10 * sim.Second, To: 13 * sim.Second},
	}})
	var reps [2]*msg.Message
	c.Spawn(echoHandler(c), func(rank int, p *sim.Proc, tr substrate.Transport) {
		if rank != 0 {
			return
		}
		p.Advance(2 * sim.Millisecond) // land inside window 1
		reps[0] = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: 1})
		if now := p.Now(); now < 10*sim.Second+2*sim.Millisecond {
			p.Advance(10*sim.Second + 2*sim.Millisecond - now) // land inside window 2
		}
		reps[1] = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: 2})
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil || rep.Kind != msg.KPong || rep.Page != int32(i+1) {
			t.Fatalf("call %d: bad reply %+v (retry budget leaked across sends?)", i, rep)
		}
	}
	st := c.Transports[0].Stats()
	if st.GMSendFailures < 2 {
		t.Errorf("GMSendFailures = %d; each window should have failed the frame once", st.GMSendFailures)
	}
	if st.SendsAbandoned != 0 || st.PeersDeclaredDead != 0 {
		t.Errorf("transient blackouts escalated to abandonment: %+v", st)
	}
}

// TestRetryExhaustionGivesUp: a permanent blackout must exhaust the
// bounded retry budget, increment the recovery counters (SendsAbandoned,
// PeersDeclaredDead), record a typed retry-exhausted failure, and fail
// the Call — the original fail-stop, surfaced instead as a diagnostic.
func TestRetryExhaustionGivesUp(t *testing.T) {
	cfg := fastgm.DefaultConfig()
	cfg.MaxSendRetries = 1
	c := stest.NewFast(2, 1, cfg)
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: 0, Dst: 1, From: sim.Millisecond, To: 1000 * sim.Second},
	}})
	var rep *msg.Message
	called := false
	c.Spawn(echoHandler(c), func(rank int, p *sim.Proc, tr substrate.Transport) {
		if rank != 0 {
			return
		}
		p.Advance(2 * sim.Millisecond)
		rep = tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
		called = true
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("Call never returned (hang)")
	}
	if rep != nil {
		t.Fatalf("Call through a permanent blackout returned %+v", rep)
	}
	st := c.Transports[0].Stats()
	if st.SendsAbandoned == 0 {
		t.Errorf("give-up did not increment SendsAbandoned: %+v", st)
	}
	if st.PeersDeclaredDead != 1 {
		t.Errorf("PeersDeclaredDead = %d, want 1", st.PeersDeclaredDead)
	}
	pf := c.Transports[0].PeerFailure()
	if pf == nil || pf.Kind != "retry-exhausted" || pf.Peer != 1 {
		t.Errorf("failure = %+v, want retry-exhausted toward peer 1", pf)
	}
	if pf != nil && pf.Attempts != cfg.MaxSendRetries+1 {
		t.Errorf("failure records %d attempts, want %d", pf.Attempts, cfg.MaxSendRetries+1)
	}
}
