package rdmagm_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
)

// The full two-sided conformance suite for rdmagm runs from the
// table-driven stest.TestConformanceAllSubstrates; this file covers the
// one-sided half of the contract.

func build(n int, seed int64) *stest.Cluster {
	return stest.NewRDMA(n, seed, fastgm.Config{})
}

func oneSided(t *testing.T, tr substrate.Transport) substrate.OneSided {
	t.Helper()
	os, ok := tr.(substrate.OneSided)
	if !ok {
		t.Fatalf("%T does not implement substrate.OneSided", tr)
	}
	return os
}

func requirePortsEnabled(t *testing.T, c *stest.Cluster) {
	t.Helper()
	for i := range c.Transports {
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if p := c.GM.Node(myrinet.NodeID(i)).Port(id); p != nil && !p.Enabled() {
				t.Errorf("node %d port %d left disabled", i, id)
			}
		}
	}
}

// TestOneSidedPutGetRoundTrip: a Put into a remote window followed by a
// Get of the same range must return the written bytes, and the target's
// host memory must hold them — all without the target's handler running.
func TestOneSidedPutGetRoundTrip(t *testing.T) {
	c := build(2, 1)
	win := make([]byte, 8192)
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	var fetched []byte
	handlerRan := false
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) { handlerRan = true }
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := oneSided(t, tr)
			if rank == 1 {
				os.RegisterWindow(p, 7, win)
				return
			}
			p.Advance(sim.Millisecond) // let rank 1 register first
			pv := os.PostPut(p, 1, 7, substrate.PutSeg{Off: 1024, Data: payload})
			if err := os.WaitVerbs(p, []substrate.PendingVerb{pv}); err != nil {
				t.Errorf("put: %v", err)
			}
			if pv.Completed() <= pv.Issued() {
				t.Error("put completion time not after issue time")
			}
			gv := os.PostGet(p, 1, 7, 1024, len(payload))
			if err := os.WaitVerbs(p, []substrate.PendingVerb{gv}); err != nil {
				t.Errorf("get: %v", err)
			}
			fetched = gv.Data()
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, payload) {
		t.Error("Get did not return the Put payload")
	}
	if !bytes.Equal(win[1024:1024+len(payload)], payload) {
		t.Error("target window memory does not hold the Put payload")
	}
	if handlerRan {
		t.Error("target handler ran during one-sided verbs")
	}
	st := c.Transports[0].Stats()
	if st.OneSidedPuts != 1 || st.OneSidedGets != 1 {
		t.Errorf("initiator counted puts=%d gets=%d, want 1/1", st.OneSidedPuts, st.OneSidedGets)
	}
	if st.OneSidedBytesPut != int64(len(payload)) || st.OneSidedBytesGot != int64(len(payload)) {
		t.Errorf("byte counters %d/%d, want %d", st.OneSidedBytesPut, st.OneSidedBytesGot, len(payload))
	}
}

// TestWindowBoundsErrors: verbs against an unknown window and past the
// end of a known one must fail with a typed *WindowBoundsError carrying
// the diagnosis, and must not touch memory.
func TestWindowBoundsErrors(t *testing.T) {
	c := build(2, 1)
	win := make([]byte, 4096)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := oneSided(t, tr)
			if rank == 1 {
				os.RegisterWindow(p, 3, win)
				return
			}
			p.Advance(sim.Millisecond)

			// Unknown window: Size is reported as -1.
			pv := os.PostPut(p, 1, 99, substrate.PutSeg{Data: []byte{1, 2, 3}})
			err := os.WaitVerbs(p, []substrate.PendingVerb{pv})
			var wbe *substrate.WindowBoundsError
			if !errors.As(err, &wbe) {
				t.Fatalf("unknown window: got %v, want WindowBoundsError", err)
			}
			if wbe.Peer != 1 || wbe.Window != 99 || wbe.Size != -1 {
				t.Errorf("unknown-window diagnosis %+v", wbe)
			}
			if want := "substrate: one-sided verb to rank 1: window 99 not registered"; wbe.Error() != want {
				t.Errorf("unknown-window error %q, want %q", wbe.Error(), want)
			}

			// Out of range in a known window: Size names the window length.
			gv := os.PostGet(p, 1, 3, 4000, 200)
			err = os.WaitVerbs(p, []substrate.PendingVerb{gv})
			if !errors.As(err, &wbe) {
				t.Fatalf("oob get: got %v, want WindowBoundsError", err)
			}
			if wbe.Window != 3 || wbe.Off != 4000 || wbe.Len != 200 || wbe.Size != 4096 {
				t.Errorf("oob diagnosis %+v", wbe)
			}
			if want := "substrate: one-sided verb to rank 1: [4000,4200) outside window 3 (4096 bytes)"; wbe.Error() != want {
				t.Errorf("oob error %q, want %q", wbe.Error(), want)
			}
			if gv.Err() == nil || gv.Data() != nil {
				t.Error("failed Get resolved with data")
			}

			// A valid verb afterwards still works: faults are per-verb, not
			// connection-fatal.
			ok := os.PostPut(p, 1, 3, substrate.PutSeg{Data: []byte{9}})
			if err := os.WaitVerbs(p, []substrate.PendingVerb{ok}); err != nil {
				t.Errorf("valid put after faults: %v", err)
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range win[4000:] {
		if b != 0 && i != 0 {
			t.Fatalf("oob access modified window memory at %d", 4000+i)
		}
	}
	if st := c.Transports[1].Stats(); st.WindowFaults != 2 {
		t.Errorf("target counted %d window faults, want 2", st.WindowFaults)
	}
}

// TestVerbFaultStorm: a long Put/Get workload through a fabric dropping
// and corrupting 3% of all packets each. Verb retransmission must
// recover every loss, the duplicate filter must absorb redeliveries
// without re-executing, and the final window contents must be exact.
func TestVerbFaultStorm(t *testing.T) {
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Drop: 0.03, Corrupt: 0.03})
	const puts = 60
	const chunk = 2048
	win := make([]byte, puts*chunk)
	want := make([]byte, puts*chunk)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := oneSided(t, tr)
			if rank == 1 {
				os.RegisterWindow(p, 5, win)
				return
			}
			p.Advance(sim.Millisecond)
			var batch []substrate.PendingVerb
			for k := 0; k < puts; k++ {
				batch = append(batch, os.PostPut(p, 1, 5, substrate.PutSeg{Off: k * chunk, Data: want[k*chunk : (k+1)*chunk]}))
			}
			if err := os.WaitVerbs(p, batch); err != nil {
				t.Errorf("put storm: %v", err)
			}
			// Read everything back through the same storm.
			var gets []substrate.PendingVerb
			for k := 0; k < puts; k++ {
				gets = append(gets, os.PostGet(p, 1, 5, k*chunk, chunk))
			}
			if err := os.WaitVerbs(p, gets); err != nil {
				t.Errorf("get storm: %v", err)
			}
			for k, gv := range gets {
				if !bytes.Equal(gv.Data(), want[k*chunk:(k+1)*chunk]) {
					t.Errorf("get %d returned wrong bytes", k)
				}
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(win, want) {
		t.Error("window contents wrong after fault storm")
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped == 0 && fs.CRCDrops == 0 {
		t.Error("storm dropped nothing; weak test")
	}
	st := c.Transports[0].Stats()
	if st.Retransmits == 0 {
		t.Error("no verb retransmissions despite the storm")
	}
	requirePortsEnabled(t, c)
}

// TestVerbBlackoutRecovery: the link into the target blacks out while a
// batch of Puts is in flight. The initiator's retransmission clock, run
// by WaitVerbs, must carry the verbs across the outage; nothing may be
// lost or left disabled afterwards.
func TestVerbBlackoutRecovery(t *testing.T) {
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: -1, Dst: 1, From: 1 * sim.Millisecond, To: 9 * sim.Millisecond},
	}})
	win := make([]byte, 4096)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := oneSided(t, tr)
			if rank == 1 {
				os.RegisterWindow(p, 2, win)
				return
			}
			p.Advance(900 * sim.Microsecond) // land the batch inside the outage
			var batch []substrate.PendingVerb
			for k := 0; k < 8; k++ {
				chunk := bytes.Repeat([]byte{byte(k + 1)}, 512)
				batch = append(batch, os.PostPut(p, 1, 2, substrate.PutSeg{Off: k * 512, Data: chunk}))
			}
			if err := os.WaitVerbs(p, batch); err != nil {
				t.Errorf("blackout puts: %v", err)
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if win[k*512] != byte(k+1) || win[k*512+511] != byte(k+1) {
			t.Errorf("chunk %d missing after blackout recovery", k)
		}
	}
	if fs := c.Fabric.FaultStats(); fs.Blackout == 0 {
		t.Error("blackout dropped nothing; weak test")
	}
	if st := c.Transports[0].Stats(); st.Retransmits == 0 {
		t.Error("no verb retransmissions despite an 8ms blackout")
	}
	requirePortsEnabled(t, c)
}

// TestVerbsAbandonedOnDeadPeer: the target becomes unreachable (every
// frame toward it lost for good) with a verb outstanding. WaitVerbs must
// spend the verb retry budget and return a typed PeerUnreachableError
// instead of hanging, and the failure must feed the shared liveness state.
func TestVerbsAbandonedOnDeadPeer(t *testing.T) {
	c := stest.NewRDMA(2, 1, fastgm.Config{})
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: -1, Dst: 1, From: 2 * sim.Millisecond, To: 100000 * sim.Second},
	}})
	win := make([]byte, 4096)
	var verr error
	c.Sim.Spawn("rank1", 0, func(p *sim.Proc) {
		c.Transports[1].Start(p, func(p *sim.Proc, m *msg.Message) {})
		oneSided(t, c.Transports[1]).RegisterWindow(p, 4, win)
	})
	c.Sim.Spawn("rank0", 0, func(p *sim.Proc) {
		tr := c.Transports[0]
		tr.Start(p, func(p *sim.Proc, m *msg.Message) {})
		os := oneSided(t, tr)
		p.Advance(5 * sim.Millisecond) // rank 1 is unreachable by now
		pv := os.PostPut(p, 0+1, 4, substrate.PutSeg{Data: []byte{1, 2, 3, 4}})
		verr = os.WaitVerbs(p, []substrate.PendingVerb{pv})
		tr.Shutdown(p)
	})
	if err := c.Run(); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	var pue *substrate.PeerUnreachableError
	if !errors.As(verr, &pue) {
		t.Fatalf("got %v, want PeerUnreachableError", verr)
	}
	if pue.Peer != 1 || pue.Kind != "retry-exhausted" {
		t.Errorf("diagnosis names peer %d kind %q, want retry-exhausted toward peer 1", pue.Peer, pue.Kind)
	}
	st := c.Transports[0].Stats()
	if st.SendsAbandoned == 0 {
		t.Errorf("no verbs abandoned: %+v", st)
	}
	if st.PeersDeclaredDead == 0 {
		t.Errorf("peer never declared dead: %+v", st)
	}
}
