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
// failing its call's request frame more than half of MaxSendRetries times
// before a retransmission lands after the window closes. Both calls must
// succeed — the attempt counter belongs to the frame and is discarded on
// SendOK, so the first window's failures must not erode the second call's
// budget. A counter that leaked across sends would exhaust inside the
// second window and abandon the call.
func TestRetryBudgetResetsAfterSendOK(t *testing.T) {
	c := stest.NewFast(2, 1, fastgm.Config{})
	// GM's resend timeout is 3s and the retransmission backoff doubles from
	// 5ms to its 200ms cap: a frame sent 1ms into a 27.8s window fails
	// nine times, and its ninth retransmission clears the window. Same
	// shape again at 40s.
	const window, second = 27800 * sim.Millisecond, 40 * sim.Second
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: 0, Dst: 1, From: sim.Millisecond, To: window},
		{Src: 0, Dst: 1, From: second + sim.Millisecond, To: second + window},
	}})
	var reps [2]*msg.Message
	var failures [2]int64
	c.Spawn(echoHandler(c), func(rank int, p *sim.Proc, tr substrate.Transport) {
		if rank != 0 {
			return
		}
		p.Advance(2 * sim.Millisecond) // land inside window 1
		reps[0] = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: 1})
		failures[0] = tr.Stats().GMSendFailures
		if now := p.Now(); now < second+2*sim.Millisecond {
			p.Advance(second + 2*sim.Millisecond - now) // land inside window 2
		}
		reps[1] = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: 2})
		failures[1] = tr.Stats().GMSendFailures - failures[0]
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil || rep.Kind != msg.KPong || rep.Page != int32(i+1) {
			t.Fatalf("call %d: bad reply %+v (retry budget leaked across sends?)", i, rep)
		}
	}
	for i, n := range failures {
		if n <= fastgm.MaxSendRetries/2 || n > fastgm.MaxSendRetries {
			t.Errorf("window %d failed the frame %d times, want more than half of the %d-retry budget", i+1, n, fastgm.MaxSendRetries)
		}
	}
	if st := c.Transports[0].Stats(); st.SendsAbandoned != 0 || st.PeersDeclaredDead != 0 {
		t.Errorf("transient blackouts escalated to abandonment: %+v", st)
	}
}

// TestRetryExhaustionGivesUp: a permanent blackout must exhaust the
// bounded retry budget, increment the recovery counters (SendsAbandoned,
// PeersDeclaredDead), record a typed retry-exhausted failure, and fail
// the Call — the original fail-stop, surfaced instead as a diagnostic.
func TestRetryExhaustionGivesUp(t *testing.T) {
	c := stest.NewFast(2, 1, fastgm.Config{})
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
	if pf != nil && pf.Attempts != fastgm.MaxSendRetries+1 {
		t.Errorf("failure records %d attempts, want %d", pf.Attempts, fastgm.MaxSendRetries+1)
	}
}
