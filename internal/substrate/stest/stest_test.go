package stest_test

import (
	"bytes"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
	"repro/internal/trace"
)

// TestConformanceAllSubstrates drives the complete Transport contract
// table-driven across every substrate in the repository. The per-package
// suites (fastgm, udpgm, rdmagm) exercise their own configuration
// variants; this table is the single place that proves the three
// families answer the same contract side by side — adding a fourth
// substrate means adding one row.
func TestConformanceAllSubstrates(t *testing.T) {
	builders := []struct {
		name  string
		build stest.Builder
	}{
		{"udpgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewUDP(n, seed)
		}},
		{"fastgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewFast(n, seed, fastgm.Config{})
		}},
		{"rdmagm", func(n int, seed int64) *stest.Cluster {
			return stest.NewRDMA(n, seed, fastgm.Config{})
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) { stest.RunConformance(t, b.build) })
	}
}

// TestDuplicateGetsEveryFrame: a call's request reaches the writer twice,
// and the writer answers the duplicate from its filter slot with every
// frame of its reply continued across two frames, on every binding.
//
// udpgm: the first packet of the reply's first frame is lost and the
// request's retransmission clock re-sends it; the lost frame arrives in
// the resend, the one already held is stale, and the call resolves whole.
//
// fastgm and rdmagm recover losses below the core, so the duplicate is
// GM's own (fastgm/recovery.go, step 3): the writer masks delivery,
// SmallPerPeer one-way fillers hold every request buffer of their class,
// and the call's request parks. The sender's resend timeout fires; a
// buffer posted before the park expires accepts the original, which is
// served once delivery is unmasked, while GM re-sends the request. Both
// frames of the duplicate's answer are stale.
//
// A causal view watches the run: a resent frame keeps its span, the cached
// continued frames of the duplicate's answer included.
func TestDuplicateGetsEveryFrame(t *testing.T) {
	const frames = 2
	for _, b := range []struct {
		name  string
		build func() *stest.Cluster
		gm    bool
	}{
		{"udpgm", func() *stest.Cluster { return stest.NewUDP(2, 1) }, false},
		{"fastgm", func() *stest.Cluster { return stest.NewFast(2, 1, fastgm.Config{}) }, true},
		{"rdmagm", func() *stest.Cluster { return stest.NewRDMA(2, 1, fastgm.Config{}) }, true},
	} {
		t.Run(b.name, func(t *testing.T) {
			c := b.build()
			tracer, cz := trace.New(1), trace.NewCausal()
			tracer.Subscribe(cz.Observe)
			c.Sim.SetTracer(tracer)
			cr := stest.NewContinuedReply(1, frames, 3000)
			posted := sim.NewCond("test:posted")
			done := false
			var spare *gm.Buffer
			c.Spawn(
				func(rank int) substrate.Handler {
					return func(p *sim.Proc, m *msg.Message) {
						if m.Budget() == frames { // not the filler
							cr.Serve(p, c.Transports[rank], m, frames)
						}
					}
				},
				func(rank int, p *sim.Proc, tr substrate.Transport) {
					req := msg.Message{Kind: msg.KDiffReq}
					req.SetBudget(frames)
					switch {
					case rank == 1 && b.gm:
						tr.DisableAsync(p)
						spare = c.GM.Node(1).AllocBuffer(p, c.GM.Params().ClassFor(len(req.Encode())+1))
						for !done {
							p.WaitOn(posted)
						}
						tr.EnableAsync(p)
					case rank == 0 && b.gm:
						for range fastgm.SmallPerPeer {
							tr.Send(p, 1, &msg.Message{Kind: msg.KDiffReq})
						}
						pd := tr.CallBegin(p, 1, &req)
						p.Sim().At(p.Now()+c.GM.Params().ResendTimeout+1, func() {
							c.GM.Node(1).Port(fastgm.AsyncPort).ProvideReceiveBuffer(spare)
							done = true
							posted.Broadcast()
						})
						if err := cr.Check(tr.Collect(p, []substrate.Pending{pd})[0], frames); err != nil {
							t.Error(err)
						}
					case rank == 0:
						// Armed after startup, so the next packet on 1→0 is the
						// first of the reply's first frame.
						c.Fabric.SetFaults(myrinet.FaultConfig{DropNexts: []myrinet.DropNext{{Src: 1, Dst: 0, Count: 1}}})
						if err := cr.Check(tr.Call(p, 1, &req), frames); err != nil {
							t.Error(err)
						}
					}
					if rank == 0 {
						// A second call drains what the resend left on the reply path.
						if err := cr.Check(tr.Call(p, 1, &req), frames); err != nil {
							t.Error(err)
						}
					}
				},
			)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			req, wr := c.Transports[0].Stats(), c.Transports[1].Stats()
			// The filter's answer is a resend: every frame of it carries the
			// span its first copy did, so each copy past the first — the
			// duplicate request and every stale reply frame — is a duplicate
			// arrival of a span, and every frame is accepted once.
			if got, want := cz.DupArrivals(), wr.DupRequests+req.StaleReplies; got != want {
				t.Errorf("%d duplicate arrivals recorded for %d duplicate requests and %d stale frames: a resent frame lost its span",
					got, wr.DupRequests, req.StaleReplies)
			}
			for _, e := range cz.Edges() {
				if !e.Arrived() {
					t.Errorf("edge %d (%s) never accepted", e.ID, e.Kind)
				}
			}
			if wr.DupRequests != 1 {
				t.Errorf("%d duplicates served, want 1", wr.DupRequests)
			}
			if b.gm {
				if parked := c.GM.Node(1).Port(fastgm.AsyncPort).Stats().Parked; parked != 1 || req.GMRetransmits != 1 {
					t.Errorf("%d requests parked, %d GM retransmits; want 1 and 1", parked, req.GMRetransmits)
				}
				if req.StaleReplies != frames {
					t.Errorf("%d stale frames, want the duplicate's answer whole", req.StaleReplies)
				}
				return
			}
			if fs := c.Fabric.FaultStats(); fs.Dropped != 1 || req.Retransmits != 1 {
				t.Errorf("dropped %d packets, %d retransmits; want 1 and 1", fs.Dropped, req.Retransmits)
			}
			if req.StaleReplies < frames-1 {
				t.Errorf("%d stale frames, want the resend's copy of every frame already held", req.StaleReplies)
			}
		})
	}
}

// TestLostFrameRecoveredByRTO: the fabric loses six udpgm packets, one
// every 7 ms, alternately toward the writer and toward the caller. Every
// call is answered with a reply continued across the two frames udpgm
// grants; a lost frame (or request) is recovered by the request's
// retransmission clock, the writer answering the duplicate with every
// frame, and every reply reads whole.
func TestLostFrameRecoveredByRTO(t *testing.T) {
	c := stest.NewUDP(2, 3)
	const calls, losses = 40, 6
	frames := 0
	cr := stest.NewContinuedReply(1, substrate.MaxFrames, 6000)
	c.Spawn(
		func(rank int) substrate.Handler {
			return func(p *sim.Proc, m *msg.Message) { cr.Serve(p, c.Transports[rank], m, m.Budget()) }
		},
		func(rank int, p *sim.Proc, tr substrate.Transport) {
			if rank != 0 {
				return
			}
			var drops []myrinet.DropNext
			for i := range losses {
				src, dst := myrinet.NodeID(i%2), myrinet.NodeID(1-i%2)
				drops = append(drops, myrinet.DropNext{Src: src, Dst: dst, From: p.Now() + sim.Time(i)*7*sim.Millisecond, Count: 1})
			}
			c.Fabric.SetFaults(myrinet.FaultConfig{DropNexts: drops})
			frames = tr.ReplyFrames(1)
			req := msg.Message{Kind: msg.KDiffReq}
			req.SetBudget(frames)
			for i := 0; i < calls; i++ {
				if err := cr.Check(tr.Call(p, 1, &req), frames); err != nil {
					t.Errorf("call %d: %v", i, err)
				}
			}
		},
	)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if frames != 2 {
		t.Errorf("udpgm grants %d frames, want 2", frames)
	}
	if fs := c.Fabric.FaultStats(); fs.Dropped != losses {
		t.Fatalf("%d packets dropped, want %d", fs.Dropped, losses)
	}
	if req, wr := c.Transports[0].Stats(), c.Transports[1].Stats(); req.Retransmits == 0 || wr.DupRequests == 0 {
		t.Errorf("%d retransmits, %d duplicates served; want the RTO to recover the lost frames", req.Retransmits, wr.DupRequests)
	}
}

// TestCallAllocatesNothing: once warm, a request/reply costs the host no
// allocation on any binding — the request is encoded into its call's
// record and decoded into the server's request decoder, the reply encoded
// into its duplicate-filter slot and decoded into a recycled decoder, and
// the slot itself reused — and neither does a reply continued across
// three frames, spliced into the call's decoder and cached frame after
// frame in its slot, nor a one-sided Put or Get, whose descriptor and
// completion take the same route. The warm-up laps every duplicate filter
// once, so every slot holds storage.
func TestCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, b := range []struct {
		name  string
		build func() *stest.Cluster
	}{
		{"udpgm", func() *stest.Cluster { return stest.NewUDP(2, 1) }},
		{"fastgm", func() *stest.Cluster { return stest.NewFast(2, 1, fastgm.Config{}) }},
		{"rdmagm", func() *stest.Cluster { return stest.NewRDMA(2, 1, fastgm.Config{}) }},
	} {
		t.Run(b.name, func(t *testing.T) {
			c := b.build()
			payload := bytes.Repeat([]byte{0x5A}, 200)
			req, reps := msg.Message{Kind: msg.KPing, PageData: payload}, make([]msg.Message, 2)
			const frames = 3
			dreq, cr := msg.Message{Kind: msg.KDiffReq}, stest.NewContinuedReply(1, frames, 200)
			dreq.SetBudget(frames)
			window := make([]byte, 4096)
			allocs := map[string]float64{}
			c.Spawn(
				func(rank int) substrate.Handler {
					return func(p *sim.Proc, m *msg.Message) {
						if m.Kind == msg.KDiffReq {
							cr.Serve(p, c.Transports[rank], m, frames)
							return
						}
						reps[rank] = msg.Message{Kind: msg.KPong, PageData: m.PageData}
						c.Transports[rank].Reply(p, m, &reps[rank])
					}
				},
				func(rank int, p *sim.Proc, tr substrate.Transport) {
					os, oneSided := tr.(substrate.OneSided)
					if rank == 1 {
						if oneSided {
							os.RegisterWindow(p, 1, window)
						}
						return
					}
					p.Advance(sim.Millisecond) // rank 1's window is registered
					call := func() {
						if rep := tr.Call(p, 1, &req); rep == nil || !bytes.Equal(rep.PageData, payload) {
							t.Fatalf("bad reply %+v", rep)
						}
					}
					ops := map[string]func(){"call": call, "3-frame call": func() {
						if err := cr.Check(tr.Call(p, 1, &dreq), frames); err != nil {
							t.Fatal(err)
						}
					}}
					if oneSided {
						segs, verbs := []substrate.PutSeg{{Off: 64, Data: payload}}, make([]substrate.PendingVerb, 1)
						ops["put"] = func() {
							verbs[0] = os.PostPut(p, 1, 1, segs...)
							if err := os.WaitVerbs(p, verbs); err != nil {
								t.Fatal(err)
							}
						}
						ops["get"] = func() {
							verbs[0] = os.PostGet(p, 1, 1, 64, len(payload))
							if err := os.WaitVerbs(p, verbs); err != nil || !bytes.Equal(verbs[0].Data(), payload) {
								t.Fatalf("get: %v %x", err, verbs[0].Data())
							}
						}
					}
					for _, name := range []string{"call", "3-frame call", "put", "get"} {
						op := ops[name]
						if op == nil {
							continue
						}
						for i := 0; i < substrate.DupCacheSize+16; i++ {
							op()
						}
						allocs[name] = testing.AllocsPerRun(100, op)
					}
				},
			)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if len(allocs) == 0 {
				t.Fatal("nothing measured")
			}
			for name, n := range allocs {
				if n != 0 {
					t.Errorf("allocations per %s = %v, want 0", name, n)
				}
			}
		})
	}
}
