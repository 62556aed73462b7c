package stest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
)

// Builder constructs a fresh cluster for a conformance test.
type Builder func(n int, seed int64) *Cluster

// RunConformance exercises the full Transport contract against a builder.
func RunConformance(t *testing.T, build Builder) {
	t.Run("PingPong", func(t *testing.T) { ConformancePingPong(t, build) })
	t.Run("ForwardedReply", func(t *testing.T) { ConformanceForwardedReply(t, build) })
	t.Run("InterruptsCompute", func(t *testing.T) { ConformanceInterruptsCompute(t, build) })
	t.Run("LargeMessages", func(t *testing.T) { ConformanceLargeMessages(t, build) })
	t.Run("MaskedDelivery", func(t *testing.T) { ConformanceMaskedDelivery(t, build) })
	t.Run("ManyToOne", func(t *testing.T) { ConformanceManyToOne(t, build) })
	t.Run("ServiceWhileWaiting", func(t *testing.T) { ConformanceServiceWhileWaiting(t, build) })
	t.Run("PrepostExhaustionRecovery", func(t *testing.T) { ConformancePrepostExhaustionRecovery(t, build) })
	t.Run("OverflowRetransmission", func(t *testing.T) { ConformanceOverflowRetransmission(t, build) })
	t.Run("DropStormPageFetch", func(t *testing.T) { ConformanceDropStormPageFetch(t, build) })
	t.Run("CorruptedReplyCRC", func(t *testing.T) { ConformanceCorruptedReplyCRC(t, build) })
	t.Run("PortDisabledMidBurstResumed", func(t *testing.T) { ConformancePortDisabledMidBurstResumed(t, build) })
	t.Run("SilentPeerMidRendezvous", func(t *testing.T) { ConformanceSilentPeerMidRendezvous(t, build) })
	t.Run("RetryExhaustion", func(t *testing.T) { ConformanceRetryExhaustion(t, build) })
	t.Run("ScatterGather", func(t *testing.T) { ConformanceScatterGather(t, build) })
	t.Run("ScatterGatherFaultStorm", func(t *testing.T) { ConformanceScatterGatherFaultStorm(t, build) })
	t.Run("LostReplyPinsOnlyItself", func(t *testing.T) { ConformanceLostReplyPinsOnlyItself(t, build) })
	t.Run("VectorPut", func(t *testing.T) { ConformanceVectorPut(t, build) })
	t.Run("ReplySlotsCap", func(t *testing.T) { ConformanceReplySlotsCap(t, build) })
	t.Run("ContinuedReply", func(t *testing.T) { ConformanceContinuedReply(t, build) })
}

// requireAllPortsEnabled asserts the residual-damage invariant after a
// fault scenario: recovery must leave every open GM port re-enabled.
func requireAllPortsEnabled(t *testing.T, c *Cluster) {
	t.Helper()
	for i := range c.Transports {
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if p := c.GM.Node(myrinet.NodeID(i)).Port(id); p != nil && !p.Enabled() {
				t.Errorf("node %d port %d left disabled", i, id)
			}
		}
	}
}

// sumTransportStats aggregates substrate counters across ranks.
func sumTransportStats(c *Cluster) substrate.Stats {
	var agg substrate.Stats
	for _, tr := range c.Transports {
		agg.Add(tr.Stats())
	}
	return agg
}

// ConformanceDropStormPageFetch: page fetches through a fabric losing 5%
// of all packets. Every reply must arrive bit-exact; the transport's
// recovery machinery (GM retransmission for FAST/GM, the user-level
// timer for UDP/GM) must show activity; no port stays disabled.
func ConformanceDropStormPageFetch(t *testing.T, build Builder) {
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Drop: 0.05})
	const fetches = 30
	page := bytes.Repeat([]byte{0xA5}, 16000)
	bad := 0
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page, PageData: page})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			for k := 0; k < fetches; k++ {
				rep := tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: int32(k)})
				if rep.Kind != msg.KPong || rep.Page != int32(k) || !bytes.Equal(rep.PageData, page) {
					bad++
				}
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d of %d page fetches returned wrong data", bad, fetches)
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped == 0 {
		t.Error("drop storm dropped nothing; weak test")
	}
	agg := sumTransportStats(c)
	if c.Stacks != nil {
		if agg.Retransmits == 0 {
			t.Error("no UDP retransmits despite 5% fabric loss")
		}
	} else {
		if agg.GMSendFailures == 0 || agg.GMRetransmits == 0 {
			t.Errorf("expected GM recovery activity, got failures=%d retransmits=%d",
				agg.GMSendFailures, agg.GMRetransmits)
		}
	}
	requireAllPortsEnabled(t, c)
}

// ConformanceCorruptedReplyCRC: payload corruption in flight. The frame
// check at the NIC/GM boundary must discard every corrupted packet —
// the application never observes flipped bytes, only (recovered) loss.
func ConformanceCorruptedReplyCRC(t *testing.T, build Builder) {
	// 5% per-packet corruption: harsh enough to corrupt several reply
	// fragments per run, gentle enough that UDP/GM's bounded retry budget
	// (each corrupted reply costs a full GM resend-timeout window)
	// comfortably outlasts recovery.
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Corrupt: 0.05})
	const calls = 30
	page := make([]byte, 8000)
	for i := range page {
		page[i] = byte(i * 13)
	}
	bad := 0
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page, PageData: page})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			for k := 0; k < calls; k++ {
				rep := tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: int32(k)})
				if rep.Page != int32(k) || !bytes.Equal(rep.PageData, page) {
					bad++
				}
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d of %d replies corrupted end-to-end (CRC must catch these)", bad, calls)
	}
	fs := c.Fabric.FaultStats()
	if fs.Corrupted == 0 || fs.CRCDrops == 0 {
		t.Errorf("expected corruption + CRC discards, got corrupted=%d crcDrops=%d",
			fs.Corrupted, fs.CRCDrops)
	}
	requireAllPortsEnabled(t, c)
}

// ConformancePortDisabledMidBurstResumed: a blackout of the link into
// rank 0 while every other rank calls it (the barrier-arrival pattern).
// The affected senders' GM ports are disabled by the resend timeout and
// must be resumed; every call still completes with a matched reply.
func ConformancePortDisabledMidBurstResumed(t *testing.T, build Builder) {
	const n = 5
	c := build(n, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: -1, Dst: 0, From: 4 * sim.Millisecond, To: 12 * sim.Millisecond},
	}})
	results := make([]int32, n)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page * 10})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank == 0 {
				return
			}
			p.Advance(5 * sim.Millisecond) // land inside the blackout window
			rep := tr.Call(p, 0, &msg.Message{Kind: msg.KPing, Page: int32(rank)})
			results[rank] = rep.Page
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if results[r] != int32(r)*10 {
			t.Errorf("rank %d reply %d, want %d", r, results[r], r*10)
		}
	}
	if fs := c.Fabric.FaultStats(); fs.Blackout == 0 {
		t.Error("blackout window dropped nothing; weak test")
	}
	var timeouts int64
	for i := 0; i < n; i++ {
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if p := c.GM.Node(myrinet.NodeID(i)).Port(id); p != nil {
				timeouts += p.Stats().Timeouts
			}
		}
	}
	if timeouts == 0 {
		t.Error("no GM send timeout despite an 8ms blackout mid-burst")
	}
	if c.Stacks == nil {
		if agg := sumTransportStats(c); agg.PortResumes == 0 {
			t.Errorf("FAST/GM recovered without transport port resumes: %+v", agg)
		}
	}
	requireAllPortsEnabled(t, c)
}

// unreachableCluster probes the builder to learn which transport family
// is under test, then constructs a fresh two-rank cluster of the same
// family at its own retry budget, FAST/GM's large messages carried by
// rendezvous, and every frame toward rank 1 lost from 1 ms on.
func unreachableCluster(build Builder) *Cluster {
	probe := build(2, 1)
	_, oneSided := probe.Transports[0].(substrate.OneSided)
	fast := fastgm.Config{Rendezvous: true}
	var c *Cluster
	switch {
	case probe.Stacks != nil:
		c = NewUDP(2, 1)
	case oneSided:
		c = NewRDMA(2, 1, fast)
	default:
		c = NewFast(2, 1, fast)
	}
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: -1, Dst: 1, From: sim.Millisecond, To: 100000 * sim.Second},
	}})
	return c
}

// ConformanceSilentPeerMidRendezvous: the peer of a large transfer becomes
// unreachable after startup — for FAST/GM the sender's data is staged
// behind an RTS that never arrives; for UDP/GM every retransmitted
// datagram vanishes. Both substrates must spend the retry budget, fail the
// Call with a diagnostic naming the peer instead of hanging the
// simulation, and drop what they staged toward it.
func ConformanceSilentPeerMidRendezvous(t *testing.T, build Builder) {
	c := unreachableCluster(build)
	started := 0
	startCond := sim.NewCond("stest:silent-start")
	rendezvous := func(p *sim.Proc) {
		started++
		startCond.Broadcast()
		for started < 2 {
			p.WaitOn(startCond)
		}
	}
	noHandler := func(p *sim.Proc, m *msg.Message) {}
	completed := false
	var rep *msg.Message
	// Rank 1 starts its transport (so preposting completes and the GM
	// session looks healthy), then nothing reaches it any more.
	c.Sim.Spawn("rank1", 0, func(p *sim.Proc) {
		c.Transports[1].Start(p, noHandler)
		rendezvous(p)
	})
	c.Sim.Spawn("rank0", 0, func(p *sim.Proc) {
		c.Transports[0].Start(p, noHandler)
		rendezvous(p)
		p.Advance(sim.Millisecond) // rank 1 is unreachable by now
		rep = c.Transports[0].Call(p, 1, &msg.Message{
			Kind: msg.KPing, Page: 7,
			PageData: bytes.Repeat([]byte{0x5A}, 16000), // rendezvous-class on FAST/GM
		})
		completed = true
		c.Transports[0].Shutdown(p)
	})
	if err := c.Run(); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	if !completed {
		t.Fatal("rank 0's Call never returned (hang)")
	}
	if rep != nil {
		t.Fatalf("Call against a dead peer returned a reply: %+v", rep)
	}
	pf := c.Transports[0].PeerFailure()
	if pf == nil {
		t.Fatal("no PeerUnreachableError recorded")
	}
	if pf.Peer != 1 || pf.Kind != "retry-exhausted" {
		t.Errorf("diagnostic names peer %d kind %q, want retry-exhausted toward peer 1", pf.Peer, pf.Kind)
	}
	// Abandoned: the call, and on FAST/GM the RTS frame and the staged
	// data behind it.
	abandoned := int64(3)
	if c.Stacks != nil {
		abandoned = 1
	}
	if st := c.Transports[0].Stats(); st.PeersDeclaredDead != 1 || st.SendsAbandoned != abandoned {
		t.Errorf("declared %d dead, abandoned %d sends; want 1 and %d", st.PeersDeclaredDead, st.SendsAbandoned, abandoned)
	}
}

// ConformanceRetryExhaustion: the give-up rule is the same on every
// substrate. Rank 0's path to rank 1 blacks out for good, so nothing but
// the retry budget — GM-level frame retransmission on FAST/GM and
// RDMA/GM, the per-call RTO on UDP/GM — can notice. Once it is spent the peer is declared dead exactly once, the
// blocked Call resolves nil (woken even though the declaration happens in
// scheduler context and the collector waits without a deadline), and the
// typed failure names the peer. Bindings that implement OneSided run the
// same blackout against their verbs (retryExhaustionOneSided).
func ConformanceRetryExhaustion(t *testing.T, build Builder) {
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: 0, Dst: 1, From: sim.Millisecond, To: 100000 * sim.Second},
	}})
	declared := 0
	c.Transports[0].SetOnPeerDead(func(peer int, err error) { declared++ })
	var rep *msg.Message
	returned := false
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
			p.Advance(2 * sim.Millisecond)
			rep = tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
			returned = true
		},
	)
	if err := c.Run(); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	if !returned {
		t.Fatal("rank 0's Call never returned (hang)")
	}
	if rep != nil {
		t.Fatalf("Call through a permanent blackout returned %+v", rep)
	}
	pf := c.Transports[0].PeerFailure()
	if pf == nil || pf.Peer != 1 || pf.Kind != "retry-exhausted" {
		t.Errorf("failure = %+v, want retry-exhausted toward peer 1", pf)
	}
	if declared != 1 {
		t.Errorf("OnPeerDead fired %d times, want exactly 1", declared)
	}
	if st := c.Transports[0].Stats(); st.PeersDeclaredDead != 1 || st.SendsAbandoned == 0 {
		t.Errorf("give-up not counted: %+v", st)
	}
	if _, ok := c.Transports[0].(substrate.OneSided); ok {
		retryExhaustionOneSided(t, build)
	}
}

// retryExhaustionOneSided is the same rule on the verb path: a Put and a
// Get outstanding into the permanent blackout spend the verb retry budget
// in the waiting process, WaitVerbs returns the typed failure for both, a
// later post toward the dead peer resolves without touching the wire, and
// nothing is left re-arming once the waiter has returned.
func retryExhaustionOneSided(t *testing.T, build Builder) {
	c := build(2, 1)
	c.Fabric.SetFaults(myrinet.FaultConfig{Blackouts: []myrinet.Blackout{
		{Src: 0, Dst: 1, From: sim.Millisecond, To: 100000 * sim.Second},
	}})
	var werr, lateErr error
	lateDone, lateBytes := false, int64(0)
	c.Spawn(
		func(rank int) substrate.Handler { return func(p *sim.Proc, m *msg.Message) {} },
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := tr.(substrate.OneSided)
			if rank != 0 {
				os.RegisterWindow(p, 1, make([]byte, 4096))
				return
			}
			p.Advance(2 * sim.Millisecond)
			verbs := []substrate.PendingVerb{
				os.PostPut(p, 1, 1, substrate.PutSeg{Data: []byte{1, 2, 3, 4}}),
				os.PostGet(p, 1, 1, 0, 64),
			}
			werr = os.WaitVerbs(p, verbs)
			for i, v := range verbs {
				if !v.Done() || v.Err() == nil || v.Data() != nil {
					t.Errorf("verb %d after give-up: done=%v err=%v", i, v.Done(), v.Err())
				}
			}
			sent := tr.Stats().BytesSent
			late := os.PostPut(p, 1, 1, substrate.PutSeg{Data: []byte{5}})
			lateDone, lateErr, lateBytes = late.Done(), late.Err(), tr.Stats().BytesSent-sent
		},
	)
	if err := c.Run(); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	var pue *substrate.PeerUnreachableError
	if !errors.As(werr, &pue) || pue.Peer != 1 || pue.Kind != "retry-exhausted" {
		t.Errorf("WaitVerbs returned %v, want retry-exhausted toward peer 1", werr)
	}
	if pf := c.Transports[0].PeerFailure(); pf == nil || pf.Peer != 1 {
		t.Errorf("PeerFailure() = %+v, want peer 1", pf)
	}
	if !lateDone || !errors.As(lateErr, &pue) || lateBytes != 0 {
		t.Errorf("post toward the dead peer: done=%v err=%v sent %d bytes; want resolved untransmitted",
			lateDone, lateErr, lateBytes)
	}
	st := c.Transports[0].Stats()
	if st.Retransmits == 0 || st.SendsAbandoned < 3 || st.PeersDeclaredDead != 1 {
		t.Errorf("retransmits=%d abandoned=%d declared=%d, want >0, >=3 (put, get, late put), 1",
			st.Retransmits, st.SendsAbandoned, st.PeersDeclaredDead)
	}
}

// ConformanceVectorPut is the write verb's contract, for bindings that
// implement OneSided (the others pass vacuously): a Put is a vector of
// segments — adjacent and empty ones are legal — that lands whole and
// reads back by Get; a Put whose last segment is out of bounds completes
// with a *WindowBoundsError naming that segment and has written none of
// the earlier ones; and a redelivered duplicate of an old Put (its
// completion is dropped once, so the initiator re-sends the descriptor)
// is answered from the target's duplicate filter, not re-applied over a
// newer Put to the same words.
func ConformanceVectorPut(t *testing.T, build Builder) {
	c := build(2, 1)
	if _, ok := c.Transports[0].(substrate.OneSided); !ok {
		return
	}
	win := make([]byte, 4096)
	seg := func(off int, fill byte, n int) substrate.PutSeg {
		return substrate.PutSeg{Off: off, Data: bytes.Repeat([]byte{fill}, n)}
	}
	var readBack []byte
	var oobErr error
	c.Spawn(
		func(rank int) substrate.Handler { return func(p *sim.Proc, m *msg.Message) {} },
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			os := tr.(substrate.OneSided)
			if rank == 1 {
				os.RegisterWindow(p, 1, win)
				return
			}
			p.Advance(sim.Millisecond) // let rank 1 register first
			wait := func(what string, v substrate.PendingVerb) error {
				err := os.WaitVerbs(p, []substrate.PendingVerb{v})
				if err != nil && what != "" {
					t.Errorf("%s: %v", what, err)
				}
				return err
			}
			// Multi-segment round trip: two adjacent segments, an empty
			// one, and a distant one.
			wait("vector put", os.PostPut(p, 1, 1, seg(8, 1, 8), seg(16, 2, 4), seg(20, 3, 0), seg(100, 4, 12)))
			gv := os.PostGet(p, 1, 1, 0, 128)
			wait("get", gv)
			readBack = gv.Data()

			// All or nothing: the last segment runs off the window.
			oobErr = wait("", os.PostPut(p, 1, 1, seg(200, 5, 4), seg(300, 6, 4), seg(4094, 7, 4)))

			// The old Put's completion is the next packet from rank 1, and
			// it is lost. The newer Put to the same words completes first;
			// waiting on the old one then re-sends its descriptor.
			c.Fabric.SetFaults(myrinet.FaultConfig{DropNexts: []myrinet.DropNext{{Src: 1, Dst: 0, Count: 1}}})
			old := os.PostPut(p, 1, 1, seg(400, 8, 4), seg(500, 8, 4))
			wait("newer put", os.PostPut(p, 1, 1, seg(400, 9, 4), seg(500, 9, 4)))
			wait("old put", old)
		},
	)
	if err := c.Run(); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	want := make([]byte, 128)
	copy(want[8:], bytes.Repeat([]byte{1}, 8))
	copy(want[16:], bytes.Repeat([]byte{2}, 4))
	copy(want[100:], bytes.Repeat([]byte{4}, 12))
	if !bytes.Equal(readBack, want) || !bytes.Equal(win[:128], want) {
		t.Errorf("vector put read back %v, window holds %v, want %v", readBack, win[:128], want)
	}
	var wbe *substrate.WindowBoundsError
	if !errors.As(oobErr, &wbe) || wbe.Off != 4094 || wbe.Len != 4 || wbe.Size != len(win) {
		t.Errorf("out-of-bounds vector put: got %v, want a WindowBoundsError naming [4094,+4) of %d", oobErr, len(win))
	}
	if !bytes.Equal(win[200:204], make([]byte, 4)) || !bytes.Equal(win[300:304], make([]byte, 4)) {
		t.Error("a faulting vector put wrote its in-bounds segments")
	}
	if win[400] != 9 || win[500] != 9 {
		t.Errorf("redelivered old put overwrote the newer one: window holds %d/%d, want 9/9", win[400], win[500])
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped != 1 {
		t.Errorf("dropped %d packets, want exactly the old put's completion", fs.Dropped)
	}
	if st := c.Transports[0].Stats(); st.Retransmits == 0 {
		t.Errorf("initiator never re-sent the put whose completion was lost: %+v", st)
	}
	if st := c.Transports[1].Stats(); st.DupRequests == 0 {
		t.Errorf("target never saw the redelivered put: %+v", st)
	}
	requireAllPortsEnabled(t, c)
}

// ConformanceScatterGather: two overlapped calls to different peers, with
// the first peer's handler slower than the second's. Collect must match
// each reply to its pending by sequence regardless of arrival order, and
// the per-pending completion times must show genuine overlap (the slow
// peer does not delay the fast one).
func ConformanceScatterGather(t *testing.T, build Builder) {
	c := build(3, 1)
	var reps []*msg.Message
	var pend []substrate.Pending
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				if rank == 1 {
					p.Advance(5 * sim.Millisecond) // slow peer: its reply arrives last
				}
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page * 10})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			pend = []substrate.Pending{
				tr.CallBegin(p, 1, &msg.Message{Kind: msg.KPing, Page: 1}),
				tr.CallBegin(p, 2, &msg.Message{Kind: msg.KPing, Page: 2}),
			}
			reps = tr.Collect(p, pend)
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0] == nil || reps[1] == nil {
		t.Fatalf("bad reply set: %v", reps)
	}
	for i, want := range []int32{10, 20} {
		if reps[i].Kind != msg.KPong || reps[i].Page != want {
			t.Errorf("pending %d: reply %+v, want Page %d", i, reps[i], want)
		}
		if !pend[i].Done() || pend[i].Reply() != reps[i] {
			t.Errorf("pending %d not resolved to its reply", i)
		}
	}
	if pend[1].Completed() >= pend[0].Completed() {
		t.Errorf("fast peer completed at %v, not before slow peer's %v (no overlap)",
			pend[1].Completed(), pend[0].Completed())
	}
	if st := c.Transports[0].Stats(); st.RepliesRecvd != 2 || st.StaleReplies != 0 {
		t.Errorf("caller stats: %+v", st)
	}
}

// ConformanceReplySlotsCap: a GM binding's sync port preposts one reply
// buffer per outstanding-call slot (n−1 by default) plus a margin, so a
// process keeps at most that many calls in flight. That many complete;
// one more is refused at once, naming the cap and the count, instead of
// overrunning the buffers and surfacing far later as an unreachable peer.
// UDP/GM's replies share a socket buffer and have no slots.
func ConformanceReplySlotsCap(t *testing.T, build Builder) {
	c := build(3, 1)
	if c.Stacks != nil {
		t.Skip("UDP/GM has no per-call reply slots")
	}
	const slots = 2
	var reps []*msg.Message
	var refused any
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			var pend []substrate.Pending
			for i := 0; i < slots; i++ {
				pend = append(pend, tr.CallBegin(p, 1+i%2, &msg.Message{Kind: msg.KPing, Page: int32(i)}))
			}
			func() {
				defer func() { refused = recover() }()
				tr.CallBegin(p, 1, &msg.Message{Kind: msg.KPing, Page: slots})
			}()
			reps = tr.Collect(p, pend)
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil || rep.Kind != msg.KPong || rep.Page != int32(i) {
			t.Errorf("call %d of %d in flight: reply %+v", i, slots, rep)
		}
	}
	verdict := fmt.Sprint(refused)
	if refused == nil || !strings.Contains(verdict, "3 calls in flight exceed the sync port's 2 reply slots") ||
		strings.Contains(verdict, "unreachable") {
		t.Errorf("call %d of %d slots: refused with %q, want the cap and the count", slots+1, slots, verdict)
	}
}

// ConformanceScatterGatherFaultStorm: two overlapped calls to different
// peers while the fabric deterministically drops exactly one reply (the
// first packet on the link 2→0). Only the affected pending's recovery
// machinery may fire — GM retransmission at the replier for FAST/GM, the
// caller's user-level timer (and the replier's duplicate cache) for
// UDP/GM — and both calls must still complete with matched replies.
func ConformanceScatterGatherFaultStorm(t *testing.T, build Builder) {
	c := build(3, 1)
	var reps []*msg.Message
	var pend []substrate.Pending
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page * 10})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			// Armed after startup, so the next packet on 2→0 is rank 2's
			// reply (GM acks are modelled as timers, not fabric packets).
			c.Fabric.SetFaults(myrinet.FaultConfig{DropNexts: []myrinet.DropNext{
				{Src: 2, Dst: 0, Count: 1},
			}})
			pend = []substrate.Pending{
				tr.CallBegin(p, 1, &msg.Message{Kind: msg.KPing, Page: 1}),
				tr.CallBegin(p, 2, &msg.Message{Kind: msg.KPing, Page: 2}),
			}
			reps = tr.Collect(p, pend)
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0] == nil || reps[1] == nil {
		t.Fatalf("bad reply set: %v", reps)
	}
	for i, want := range []int32{10, 20} {
		if reps[i].Kind != msg.KPong || reps[i].Page != want {
			t.Errorf("pending %d: reply %+v, want Page %d", i, reps[i], want)
		}
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped != 1 {
		t.Errorf("dropped %d packets, want exactly the one armed reply", fs.Dropped)
	}
	// The untouched pending must complete at full speed, well before the
	// dropped one's recovery (GM resend timeout / UDP retry) resolves.
	if pend[0].Completed() >= pend[1].Completed() {
		t.Errorf("clean pending completed at %v, not before faulted peer's %v",
			pend[0].Completed(), pend[1].Completed())
	}
	if c.Stacks != nil {
		// UDP/GM: only the caller retransmits, and only rank 2 sees the
		// duplicate request that answers from its reply cache.
		if st := c.Transports[0].Stats(); st.Retransmits == 0 {
			t.Errorf("caller never retransmitted the faulted call: %+v", st)
		}
		if st := c.Transports[1].Stats(); st.DupRequests != 0 {
			t.Errorf("clean peer saw %d duplicate requests", st.DupRequests)
		}
		if st := c.Transports[2].Stats(); st.DupRequests == 0 {
			t.Errorf("faulted peer never served the duplicate: %+v", st)
		}
	} else {
		// FAST/GM: the lost reply is the replier's frame, so recovery is
		// rank 2's GM retransmission; nobody else's machinery may trip.
		if st := c.Transports[2].Stats(); st.GMRetransmits == 0 {
			t.Errorf("faulted replier never retransmitted: %+v", st)
		}
		if st := c.Transports[1].Stats(); st.GMSendFailures != 0 || st.GMRetransmits != 0 {
			t.Errorf("clean replier's recovery tripped: %+v", st)
		}
		if st := c.Transports[0].Stats(); st.GMSendFailures != 0 {
			t.Errorf("caller's own sends failed: %+v", st)
		}
		requireAllPortsEnabled(t, c)
	}
}

// ConformanceLostReplyPinsOnlyItself: one page-sized reply loses a packet
// on the fabric, so GM keeps its registered send bytes until the 3 s
// resend timeout. That may cost the victim alone: a page-sized call from a
// different peer to the same server, made while the lost frame is still
// pending, completes at wire speed. With one send buffer per size class it
// parked the server's handler behind the lost frame for the whole timeout
// (DESIGN.md §14.3); a send arena pins only the lost frame's own bytes.
func ConformanceLostReplyPinsOnlyItself(t *testing.T, build Builder) {
	c := build(3, 1)
	page := bytes.Repeat([]byte{0x5A}, 4096)
	var took [3]sim.Time
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page, PageData: page})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			switch rank {
			case 0:
				return
			case 1:
				// Armed after startup, so the next packet on 0→1 belongs to
				// the reply to this call.
				c.Fabric.SetFaults(myrinet.FaultConfig{DropNexts: []myrinet.DropNext{{Src: 0, Dst: 1, Count: 1}}})
			case 2:
				p.Advance(sim.Millisecond) // the victim's reply is lost and pending by now
			}
			start := p.Now()
			rep := tr.Call(p, 0, &msg.Message{Kind: msg.KPing, Page: int32(rank)})
			took[rank] = p.Now() - start
			if rep.Kind != msg.KPong || rep.Page != int32(rank) || !bytes.Equal(rep.PageData, page) {
				t.Errorf("rank %d: wrong page reply %v/%d", rank, rep.Kind, rep.Page)
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped != 1 {
		t.Errorf("dropped %d packets, want exactly the one armed reply packet", fs.Dropped)
	}
	if took[1] < sim.Millisecond {
		t.Errorf("the victim's call took %v: its reply was not lost; weak test", took[1])
	}
	if took[2] >= sim.Millisecond {
		t.Errorf("a call from another peer took %v behind one lost reply, want < 1ms", took[2])
	}
	requireAllPortsEnabled(t, c)
}

// ConformancePingPong: a simple matched request/reply with payload echo.
func ConformancePingPong(t *testing.T, build Builder) {
	c := build(2, 1)
	var got *msg.Message
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				if m.Kind != msg.KPing {
					t.Errorf("rank %d: unexpected %v", rank, m.Kind)
				}
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, PageData: m.PageData})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			got = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, PageData: []byte("payload-123")})
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != msg.KPong || string(got.PageData) != "payload-123" {
		t.Fatalf("bad reply: %+v", got)
	}
	if c.Transports[0].Stats().RepliesRecvd != 1 || c.Transports[1].Stats().RequestsRecvd != 1 {
		t.Errorf("stats: %v / %v", c.Transports[0].Stats(), c.Transports[1].Stats())
	}
}

// ConformanceForwardedReply: rank 0 calls rank 1; rank 1 forwards to rank
// 2; rank 2 replies directly to rank 0 — the lock-manager indirection.
func ConformanceForwardedReply(t *testing.T, build Builder) {
	c := build(3, 1)
	var got *msg.Message
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				switch rank {
				case 1:
					c.Transports[1].Forward(p, 2, m)
				case 2:
					if m.ReplyTo != 0 {
						t.Errorf("forward lost originator: %d", m.ReplyTo)
					}
					c.Transports[2].Reply(p, m, &msg.Message{Kind: msg.KLockGrant, Lock: m.Lock})
				}
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			got = tr.Call(p, 1, &msg.Message{Kind: msg.KLockAcquire, Lock: 7})
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != msg.KLockGrant || got.Lock != 7 {
		t.Fatalf("bad forwarded reply: %+v", got)
	}
	if got.From != 2 {
		t.Errorf("reply came from %d, want 2 (direct third-node reply)", got.From)
	}
}

// ConformanceInterruptsCompute: a request arriving mid-compute is
// serviced asynchronously and extends the computation.
func ConformanceInterruptsCompute(t *testing.T, build Builder) {
	c := build(2, 1)
	var start sim.Time // body start; startup registration cost varies per substrate
	var served sim.Time
	var computeEnd sim.Time
	var got *msg.Message
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
				start = p.Now()
				p.Advance(20 * sim.Millisecond)
				computeEnd = p.Now()
			case 1:
				p.Advance(5 * sim.Millisecond)
				got = tr.Call(p, 0, &msg.Message{Kind: msg.KPing})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != msg.KPong {
		t.Fatal("no pong")
	}
	if d := served - start; d < 5*sim.Millisecond || d > 7*sim.Millisecond {
		t.Errorf("request served %v after body start, want shortly after 5ms (async)", d)
	}
	if computeEnd-start <= 20*sim.Millisecond {
		t.Errorf("compute took %v; servicing should have extended it", computeEnd-start)
	}
}

// ConformanceLargeMessages: multi-fragment payloads survive both
// directions (large request via Send path is not required; large replies
// are the DSM's page/diff case).
func ConformanceLargeMessages(t *testing.T, build Builder) {
	c := build(2, 1)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got *msg.Message
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, PageData: payload})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			got = tr.Call(p, 1, &msg.Message{Kind: msg.KPing, Page: 3})
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || !bytes.Equal(got.PageData, payload) {
		t.Fatal("large reply corrupted")
	}
}

// ConformanceMaskedDelivery: requests arriving while async delivery is
// masked are deferred, then serviced on enable.
func ConformanceMaskedDelivery(t *testing.T, build Builder) {
	c := build(2, 1)
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
				tr.DisableAsync(p)
				p.Advance(30 * sim.Millisecond)
				tr.EnableAsync(p)
			case 1:
				p.Advance(5 * sim.Millisecond)
				tr.Call(p, 0, &msg.Message{Kind: msg.KPing})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if served < 30*sim.Millisecond {
		t.Errorf("request served at %v despite mask until 30ms", served)
	}
}

// ConformanceManyToOne: several ranks call rank 0 concurrently; each gets
// its own matched reply.
func ConformanceManyToOne(t *testing.T, build Builder) {
	const n = 8
	c := build(n, 1)
	results := make([]int32, n)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page * 10})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank == 0 {
				p.Advance(10 * sim.Millisecond) // serve everyone while "computing"
				return
			}
			for k := 0; k < 5; k++ {
				rep := tr.Call(p, 0, &msg.Message{Kind: msg.KPing, Page: int32(rank)})
				if rep.Page != int32(rank)*10 {
					t.Errorf("rank %d got wrong reply %d", rank, rep.Page)
				}
				results[rank] = rep.Page
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if results[r] != int32(r)*10 {
			t.Errorf("rank %d final reply %d", r, results[r])
		}
	}
}

// ConformanceServiceWhileWaiting: a process blocked awaiting its own
// reply must still service others' requests — otherwise distributed
// lock chains deadlock.
func ConformanceServiceWhileWaiting(t *testing.T, build Builder) {
	c := build(3, 1)
	// rank 1 calls rank 2, whose handler needs 5ms of service; while rank
	// 1 waits, rank 0 calls rank 1, which must answer promptly.
	var start sim.Time // body start; startup registration cost varies per substrate
	var servedByWaiting sim.Time
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				if rank == 2 {
					p.Advance(5 * sim.Millisecond)
				}
				if rank == 1 {
					servedByWaiting = p.Now()
				}
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			switch rank {
			case 1:
				start = p.Now()
				tr.Call(p, 2, &msg.Message{Kind: msg.KPing})
			case 0:
				p.Advance(sim.Millisecond) // rank 1 is now blocked waiting
				tr.Call(p, 1, &msg.Message{Kind: msg.KPing})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if servedByWaiting == 0 || servedByWaiting-start > 3*sim.Millisecond {
		t.Errorf("blocked rank served request %v after body start, want ≈1ms", servedByWaiting-start)
	}
}

// ConformancePrepostExhaustionRecovery: a burst of one-way requests at a
// masked receiver exceeds the small-class preposted buffer depth (for
// FAST/GM: SmallPerPeer × peers). The transport must absorb the burst —
// GM parks no-buffer arrivals and redelivers once buffers are recycled —
// and every message must eventually be serviced, with no GM send
// timeouts (the fail-stop condition the paper's preposting strategy is
// designed to preclude).
func ConformancePrepostExhaustionRecovery(t *testing.T, build Builder) {
	const n = 6
	const perPeer = 10 // 10 × 5 peers = 50 > default 4 × 5 preposted
	c := build(n, 1)
	received := 0
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				if rank != 0 {
					t.Errorf("rank %d received unexpected %v", rank, m.Kind)
					return
				}
				if m.Kind != msg.KPing {
					t.Errorf("unexpected kind %v", m.Kind)
				}
				received++
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank == 0 {
				// Mask while the burst lands: arrivals consume preposted
				// buffers, which cannot be recycled until we service them.
				tr.DisableAsync(p)
				p.Advance(50 * sim.Millisecond)
				tr.EnableAsync(p)
				for received < (n-1)*perPeer {
					p.Advance(sim.Millisecond)
				}
				return
			}
			p.Advance(sim.Millisecond)
			for k := 0; k < perPeer; k++ {
				tr.Send(p, 0, &msg.Message{Kind: msg.KPing})
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if received != (n-1)*perPeer {
		t.Fatalf("received %d of %d one-way requests", received, (n-1)*perPeer)
	}
	// FAST/GM-specific: the burst must actually have exhausted preposting
	// (messages parked) and recovery must not have tripped the 3s GM
	// resend timeout. UDP/GM has no GM port here (kernel sockets only).
	if ap := c.GM.Node(0).Port(fastgm.AsyncPort); ap != nil {
		st := ap.Stats()
		if st.Parked == 0 {
			t.Errorf("burst never exhausted preposted buffers (Parked = 0); weak test")
		}
		if st.Timeouts != 0 {
			t.Errorf("%d GM send timeouts during recovery (fail-stop condition)", st.Timeouts)
		}
	}
}

// ConformanceOverflowRetransmission: large concurrent requests at a
// long-masked receiver. For UDP/GM the per-socket receive buffer fills
// with retransmitted copies until the kernel drops datagrams; the
// user-level retransmission must nonetheless complete every Call with a
// correct matched reply (the duplicate cache absorbing the extras). For
// FAST/GM the large class is preposted (n−1) deep, so the same workload
// must complete with no drops and no GM timeouts.
func ConformanceOverflowRetransmission(t *testing.T, build Builder) {
	const n = 6
	const payload = 20000
	c := build(n, 1)
	replies := make([]*msg.Message, n)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				c.Transports[rank].Reply(p, m, &msg.Message{Kind: msg.KPong, Page: m.Page, PageData: m.PageData})
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank == 0 {
				// Masked long enough for UDP/GM's exponential backoff to
				// queue ~4 copies of each 20KB request into the 64KB
				// per-peer socket buffer (copies at ≈1, 21, 61, 141ms).
				tr.DisableAsync(p)
				p.Advance(160 * sim.Millisecond)
				tr.EnableAsync(p)
				return
			}
			p.Advance(sim.Millisecond)
			body := bytes.Repeat([]byte{byte(rank)}, payload)
			replies[rank] = tr.Call(p, 0, &msg.Message{Kind: msg.KPing, Page: int32(rank), PageData: body})
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for rank := 1; rank < n; rank++ {
		rep := replies[rank]
		if rep == nil || rep.Kind != msg.KPong || rep.Page != int32(rank) {
			t.Fatalf("rank %d: bad reply %+v", rank, rep)
		}
		if len(rep.PageData) != payload || rep.PageData[0] != byte(rank) {
			t.Fatalf("rank %d: corrupted echo (%d bytes)", rank, len(rep.PageData))
		}
	}
	if c.Stacks != nil {
		// UDP/GM: the scenario must genuinely have overflowed and recovered.
		var retx int64
		for _, tr := range c.Transports {
			retx += tr.Stats().Retransmits
		}
		if drops := c.Stacks[0].Stats().DatagramsDrop; drops == 0 {
			t.Errorf("receiver socket never overflowed (drops = 0); weak test")
		}
		if retx == 0 {
			t.Errorf("no retransmissions despite a %dms mask", 160)
		}
	}
	if ap := c.GM.Node(0).Port(fastgm.AsyncPort); ap != nil {
		if st := ap.Stats(); st.Timeouts != 0 {
			t.Errorf("%d GM send timeouts (fail-stop condition)", st.Timeouts)
		}
	}
}

// ConformanceContinuedReply: rank 0 of seven scatters one call to each of
// two writers, granting each reply the frame budget the transport gives a
// call issued beside one other, and each writer answers with a reply
// continued across that many frames. Each reply resolves as one Collect
// entry holding every frame's diffs in frame order; each writer counts the
// frames after its first as continued, and no frame is stale.
func ConformanceContinuedReply(t *testing.T, build Builder) {
	c := build(7, 1)
	writers := []*ContinuedReply{nil, NewContinuedReply(1, substrate.MaxFrames, 3000), NewContinuedReply(2, substrate.MaxFrames, 3000)}
	frames := 0
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) {
				writers[rank].Serve(p, c.Transports[rank], m, m.Budget())
			}
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			frames = tr.ReplyFrames(2)
			req := msg.Message{Kind: msg.KDiffReq}
			req.SetBudget(frames)
			pend := []substrate.Pending{tr.CallBegin(p, 1, &req), tr.CallBegin(p, 2, &req)}
			for i, rep := range tr.Collect(p, pend) {
				if err := writers[i+1].Check(rep, frames); err != nil {
					t.Errorf("writer %d: %v", i+1, err)
				}
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if frames < 2 || frames > substrate.MaxFrames {
		t.Fatalf("a call beside one other is granted %d frames, want 2 to %d", frames, substrate.MaxFrames)
	}
	if st := c.Transports[0].Stats(); st.RepliesRecvd != 2 || st.StaleReplies != 0 {
		t.Errorf("requester matched %d replies with %d stale frames, want 2 and 0", st.RepliesRecvd, st.StaleReplies)
	}
	for w := 1; w <= 2; w++ {
		if st := c.Transports[w].Stats(); st.RepliesSent != 1 || st.ContinuedFrames != int64(frames-1) {
			t.Errorf("writer %d sent %d replies and %d continued frames, want 1 and %d", w, st.RepliesSent, st.ContinuedFrames, frames-1)
		}
	}
}
