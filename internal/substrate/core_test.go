package substrate

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// fakeWire is a binding with no interconnect: transmitted frames are
// recorded, replies are whatever the test queues, and the wait is a plain
// condition variable. It lets the core be driven sim-only.
type fakeWire struct {
	sent    []Lane
	bodies  [][]byte // the frames themselves, held as a binding holds them: not copied
	replies []*msg.Message
	cond    *sim.Cond
	probes  []int
	gone    []int
}

func (w *fakeWire) Transmit(p *sim.Proc, dst int, lane Lane, kind msg.Kind, body, aux []byte) {
	w.sent = append(w.sent, lane)
	w.bodies = append(w.bodies, body)
}

func (w *fakeWire) AwaitReply(p *sim.Proc, deadline sim.Time, _ *msg.Decoder) *msg.Message {
	for len(w.replies) == 0 {
		if deadline == 0 {
			p.WaitOn(w.cond)
		} else if !p.WaitOnUntil(w.cond, deadline) && p.Now() >= deadline {
			return nil
		}
	}
	m := w.replies[0]
	w.replies = w.replies[1:]
	return m
}

func (w *fakeWire) Probe(peer int) bool { w.probes = append(w.probes, peer); return true }
func (w *fakeWire) PeerGone(peer int)   { w.gone = append(w.gone, peer); w.cond.Broadcast() }

// deliver queues a reply for seq, as the wire would at time at.
func (w *fakeWire) deliver(s *sim.Simulator, at sim.Time, seq uint32) {
	s.At(at, func() {
		w.replies = append(w.replies, &msg.Message{Kind: msg.KPong, Seq: seq, From: 1})
		w.cond.Broadcast()
	})
}

// coreArgs are the Init arguments a test varies.
type coreArgs struct {
	Policy
	RTO        Backoff
	MaxRetries int
}

// runCore builds a 3-rank core for rank 0 over a fake wire and runs body
// as its owning process.
func runCore(t *testing.T, cfg coreArgs, body func(p *sim.Proc, c *Core, w *fakeWire)) (*Core, *fakeWire) {
	t.Helper()
	s := sim.New(1)
	w := &fakeWire{cond: sim.NewCond("fake:replies")}
	c := &Core{}
	c.Init(w, 0, 3, cfg.Policy, cfg.RTO, cfg.MaxRetries)
	s.Spawn("rank0", 0, func(p *sim.Proc) {
		c.Attach(p, func(*sim.Proc, *msg.Message) {})
		body(p, c, w)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestLivenessSilenceDeclaresExactlyOnce(t *testing.T) {
	var deaths []int
	var at sim.Time
	c, w := runCore(t, coreArgs{Policy: Policy{Liveness: true}}, func(p *sim.Proc, c *Core, w *fakeWire) {
		c.SetOnPeerDead(func(peer int, err error) { deaths, at = append(deaths, peer), p.Sim().Now() })
		c.Live.Start()
		for i := 1; i <= 20; i++ { // peer 1 stays audible, peer 2 never speaks
			p.Sim().At(sim.Time(i)*sim.Millisecond/2, func() { c.Live.Heard(1) })
		}
		p.Advance(12 * sim.Millisecond)
		// Quiesce stops the clock, once: a second halt is not a fresh one.
		if !c.Quiesce() || !c.Halted() || c.Quiesce() {
			t.Error("Quiesce did not halt exactly once")
		}
	})
	if !slices.Equal(deaths, []int{2}) || c.Stats().PeersDeclaredDead != 1 {
		t.Fatalf("deaths = %v, PeersDeclaredDead = %d; want peer 2 exactly once", deaths, c.Stats().PeersDeclaredDead)
	}
	// Silent since Start at 0 under the 500µs × 8 schedule: the tick at 4ms
	// is not past the 4ms deadline, the next one (4.5ms) is.
	if at != 4500*sim.Microsecond {
		t.Errorf("declared at %v, want the first tick past the deadline (4.5ms)", at)
	}
	if pf := c.PeerFailure(); pf == nil || pf.Peer != 2 || pf.Kind != "heartbeat-miss" || pf.Rank != 0 {
		t.Errorf("failure = %+v, want heartbeat-miss toward peer 2", pf)
	}
	if !slices.Equal(w.gone, []int{2}) {
		t.Errorf("binding cleanup ran for %v, want [2] once", w.gone)
	}
	// Eight ticks probed both peers before the declaration.
	if n := int64(len(w.probes)); n != c.Stats().HeartbeatsSent || w.probes[n-1] != 1 || slices.Contains(w.probes[16:], 2) {
		t.Errorf("probes %v (HeartbeatsSent %d): want every probe counted and none toward the dead peer", w.probes, c.Stats().HeartbeatsSent)
	}
}

func TestLivenessHeardWithinBoundary(t *testing.T) {
	runCore(t, coreArgs{}, func(p *sim.Proc, c *Core, w *fakeWire) {
		p.Advance(sim.Millisecond)
		c.Live.Heard(1)
		p.Advance(5 * sim.Microsecond)
		if !c.Live.HeardWithin(1, 5*sim.Microsecond) {
			t.Error("a frame exactly d ago must count as heard within d")
		}
		if c.Live.HeardWithin(1, 5*sim.Microsecond-1) {
			t.Error("a frame older than d counted as heard within d")
		}
		if c.Live.HeardWithin(7, sim.Second) || c.Live.HeardWithin(-1, sim.Second) {
			t.Error("out-of-range rank reported as heard")
		}
	})
}

func TestKeysWhereAscending(t *testing.T) {
	m := map[uint32]int{}
	for i := uint32(1); i <= 200; i++ {
		m[i*7919%1000] = int(i % 2)
	}
	keys := KeysWhere(m, func(v int) bool { return v == 1 })
	if len(keys) != 100 || !slices.IsSorted(keys) {
		t.Errorf("KeysWhere returned %d keys, sorted=%v", len(keys), slices.IsSorted(keys))
	}
}

// TestReplyBodyIsItsOwnSnapshot pins Reply's contract, the one that lets
// tmk serve a page straight out of live shared memory: the reply is encoded
// before Reply returns and the encoding copies, so a store into the source
// afterwards reaches neither the frame the binding holds for retransmission
// nor the duplicate filter's cached answer.
func TestReplyBodyIsItsOwnSnapshot(t *testing.T) {
	runCore(t, coreArgs{}, func(p *sim.Proc, c *Core, w *fakeWire) {
		page := bytes.Repeat([]byte{0xAB}, 4096)
		want := bytes.Clone(page)
		req := &msg.Message{Kind: msg.KPing, Seq: 7, From: 1, ReplyTo: 1, Page: 3}
		if c.Admit(p, req, nil, 0) != nil {
			t.Fatal("fresh request taken for a duplicate")
		}
		c.Reply(p, req, &msg.Message{Kind: msg.KPong, Page: 3, PageData: page})
		clear(page) // the application writes the page after it was served

		e := c.Admit(p, req, nil, 0)
		if e == nil {
			t.Fatal("redelivered request not recognised")
		}
		c.AnswerDup(p, req, e)
		if len(w.bodies) != 2 {
			t.Fatalf("%d frames transmitted, want the reply and its cached resend", len(w.bodies))
		}
		for i, body := range w.bodies {
			m, err := msg.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.PageData, want) {
				t.Errorf("frame %d carries the page as written after Reply, not as served", i)
			}
		}
	})
}

func TestStaleReplyCountedOnce(t *testing.T) {
	c, _ := runCore(t, coreArgs{}, func(p *sim.Proc, c *Core, w *fakeWire) {
		first := c.CallBegin(p, 1, &msg.Message{Kind: msg.KPing})
		w.deliver(p.Sim(), sim.Millisecond, first.Seq())
		w.deliver(p.Sim(), sim.Millisecond, first.Seq()) // the duplicate answer
		if rep := c.Collect(p, []Pending{first})[0]; rep == nil || rep.Seq != first.Seq() {
			t.Fatalf("first call: reply %+v", rep)
		}
		second := c.CallBegin(p, 1, &msg.Message{Kind: msg.KPing})
		w.deliver(p.Sim(), 2*sim.Millisecond, second.Seq())
		if rep := c.Collect(p, []Pending{second})[0]; rep == nil || rep.Seq != second.Seq() {
			t.Fatalf("second call matched the stale reply: %+v", rep)
		}
	})
	if st := c.Stats(); st.StaleReplies != 1 || st.RepliesRecvd != 2 {
		t.Errorf("StaleReplies=%d RepliesRecvd=%d, want 1 and 2", st.StaleReplies, st.RepliesRecvd)
	}
}

func TestHedgeFiresAtMostOncePerCall(t *testing.T) {
	c, w := runCore(t, coreArgs{Policy: Policy{Hedge: true}}, func(p *sim.Proc, c *Core, w *fakeWire) {
		// Both calls hedge at the 500µs floor unless answered first.
		slow := c.CallBegin(p, 1, &msg.Message{Kind: msg.KPing})
		fast := c.CallBegin(p, 2, &msg.Message{Kind: msg.KPing})
		w.deliver(p.Sim(), hedgeMinDeadline/2, fast.Seq())
		w.deliver(p.Sim(), 50*sim.Millisecond, slow.Seq())
		reps := c.Collect(p, []Pending{slow, fast})
		if reps[0] == nil || reps[1] == nil || p.Now() != 50*sim.Millisecond {
			t.Errorf("replies %v at %v", reps, p.Now())
		}
	})
	// Only the straggler hedges, once, however long it keeps straggling.
	want := []Lane{LaneRequest, LaneRequest, LaneRelay}
	if c.Stats().HedgedRequests != 1 || !slices.Equal(w.sent, want) {
		t.Errorf("HedgedRequests=%d frames=%v, want 1 and %v", c.Stats().HedgedRequests, w.sent, want)
	}
}

func TestRTOBacksOffThenGivesUp(t *testing.T) {
	cfg := coreArgs{RTO: Backoff{Initial: 10 * sim.Millisecond, Max: 40 * sim.Millisecond}, MaxRetries: 3}
	c, w := runCore(t, cfg, func(p *sim.Proc, c *Core, w *fakeWire) {
		if rep := c.Call(p, 1, &msg.Message{Kind: msg.KPing}); rep != nil {
			t.Errorf("call into the void returned %+v", rep)
		}
		// 10 + 20 + 40 + 40: the original plus three retransmissions.
		if p.Now() != 110*sim.Millisecond {
			t.Errorf("gave up at %v, want 110ms", p.Now())
		}
	})
	if st := c.Stats(); st.Retransmits != 3 || st.RequestsSent != 4 || len(w.sent) != 4 {
		t.Errorf("retransmits=%d requests=%d frames=%d", st.Retransmits, st.RequestsSent, len(w.sent))
	}
	if pf := c.PeerFailure(); pf == nil || pf.Kind != "retry-exhausted" || pf.Attempts != 4 || !c.Live.Dead(1) {
		t.Errorf("failure = %+v", pf)
	}
}

// fakeVerbs is a second family of calls over the same core, the shape of
// rdmagm's one-sided verbs: the answer to seq is a completion the test
// queues, a re-issue is recorded, and nothing counts as a request or reply.
type fakeVerbs struct {
	c      *Core
	x      Exchange
	comps  []uint32
	cond   *sim.Cond
	resent []uint32
}

func newFakeVerbs(c *Core, rto Backoff, maxRetries int) *fakeVerbs {
	v := &fakeVerbs{c: c, cond: sim.NewCond("fake:cq")}
	v.x = Exchange{RTO: rto, MaxRetries: maxRetries,
		Await: func(p *sim.Proc, deadline sim.Time) bool {
			if len(v.comps) == 0 {
				p.WaitOnUntil(v.cond, deadline)
			}
			if len(v.comps) == 0 {
				return false // deadline, or PeerGone's kick
			}
			seq := v.comps[0]
			v.comps = v.comps[1:]
			if pc := c.Lookup(p, &v.x, seq, 1); pc != nil {
				c.Complete(pc, []byte{byte(seq)}, nil)
			}
			return true
		},
		Resend: func(p *sim.Proc, pc *Call) bool { v.resent = append(v.resent, pc.Seq()); return true }}
	return v
}

func (v *fakeVerbs) post(p *sim.Proc, dst int) *Call {
	pc := v.c.Open(p, &v.x, dst, v.c.NextSeq(), nil)
	pc.FrameBuf(1)[0] = 0x11
	if !pc.Done() {
		pc.Arm(p.Now())
	}
	return pc
}

// complete queues the completion for seq at time at; PeerGone wakes the
// same wait, as a binding's would.
func (v *fakeVerbs) complete(s *sim.Simulator, at sim.Time, seq uint32) {
	s.At(at, func() { v.comps = append(v.comps, seq); v.cond.Broadcast() })
}

func waitAll(c *Core, p *sim.Proc, hs []*Call) {
	for Step(c, p, hs) > 0 {
	}
}

func TestExchangeLostCompletionReissuedResolvesOnce(t *testing.T) {
	rto := Backoff{Initial: 10 * sim.Millisecond, Max: 40 * sim.Millisecond}
	var v *fakeVerbs
	c, w := runCore(t, coreArgs{Policy: Policy{Hedge: true}},
		func(p *sim.Proc, c *Core, w *fakeWire) {
			v = newFakeVerbs(c, rto, 3)
			pc := v.post(p, 1)
			// The first completion is lost; the re-issue at 10ms is answered
			// at 12ms, and so (late) is the original: one resolves, one is stale.
			v.complete(p.Sim(), 12*sim.Millisecond, pc.Seq())
			v.complete(p.Sim(), 12*sim.Millisecond, pc.Seq())
			waitAll(c, p, []*Call{pc})
			if !pc.Done() || pc.Err() != nil || !slices.Equal(pc.Data(), []byte{byte(pc.Seq())}) ||
				pc.Completed() != 12*sim.Millisecond {
				t.Errorf("verb resolved done=%v err=%v data=%v at %v", pc.Done(), pc.Err(), pc.Data(), pc.Completed())
			}
			other := v.post(p, 2) // drains the duplicate
			v.complete(p.Sim(), 13*sim.Millisecond, other.Seq())
			waitAll(c, p, []*Call{other})
			if pc.Completed() != 12*sim.Millisecond || len(c.pending) != 0 {
				t.Errorf("duplicate completion re-resolved the verb (completed %v, %d pending)", pc.Completed(), len(c.pending))
			}
		})
	st := c.Stats()
	if !slices.Equal(v.resent, []uint32{1}) || st.Retransmits != 1 || st.StaleReplies != 1 {
		t.Errorf("resent=%v Retransmits=%d StaleReplies=%d, want one re-issue and one stale answer", v.resent, st.Retransmits, st.StaleReplies)
	}
	// A verb is not a request: never hedged (the 500µs hedge floor passed
	// untouched), never on the two-sided wire, never in the call counters.
	if st.HedgedRequests != 0 || st.RequestsSent != 0 || st.RepliesRecvd != 0 || st.ReplyWaitTime != 0 || len(w.sent) != 0 {
		t.Errorf("verb leaked into two-sided accounting: %+v frames=%v", st, w.sent)
	}
	// Resolved means gone: the last event is the second completion, not a
	// retransmission clock still armed behind it.
	if now := c.Proc().Sim().Now(); now != 13*sim.Millisecond {
		t.Errorf("simulation ran on to %v after the last completion at 13ms", now)
	}
}

func TestExchangePeerGoneResolvesEveryFamily(t *testing.T) {
	var order []uint32
	c, _ := runCore(t, coreArgs{}, func(p *sim.Proc, c *Core, w *fakeWire) {
		v := newFakeVerbs(c, Backoff{Initial: sim.Second, Max: sim.Second}, 3)
		w.cond = v.cond // PeerGone wakes the verb wait
		var hs []*Call
		for i := 0; i < 8; i++ { // verbs and two-sided calls interleaved, peers 1 and 2
			hs = append(hs, v.post(p, 1+i%2))
			c.CallBegin(p, 1+i%2, &msg.Message{Kind: msg.KPing})
		}
		p.Sim().After(sim.Millisecond, func() {
			c.Live.DeclareDead(1, "heartbeat-miss", 0)
			for _, seq := range KeysWhere(c.pending, func(*Call) bool { return true }) {
				order = append(order, seq)
			}
		})
		var toward1 []*Call
		for _, pc := range hs {
			if pc.Dst() == 1 {
				toward1 = append(toward1, pc)
			}
		}
		waitAll(c, p, toward1)
		if p.Now() != sim.Millisecond {
			t.Errorf("waiter woke at %v, want the declaration at 1ms", p.Now())
		}
		var pue *PeerUnreachableError
		for _, pc := range toward1 {
			if !errors.As(pc.Err(), &pue) || pue.Peer != 1 || pc.Data() != nil {
				t.Errorf("verb %d resolved with %v", pc.Seq(), pc.Err())
			}
		}
		for _, pc := range hs {
			if pc.Dst() == 2 && pc.Done() {
				t.Errorf("verb %d toward the live peer resolved", pc.Seq())
			}
		}
	})
	// Everything toward peer 1 — four verbs, four calls — left the table
	// in the one sweep; what is left is exactly peer 2's.
	if want := []uint32{3, 4, 7, 8, 11, 12, 15, 16}; !slices.Equal(order, want) {
		t.Errorf("still pending %v, want %v", order, want)
	}
	if st := c.Stats(); st.SendsAbandoned != 8 || c.PeerFailure() == nil {
		t.Errorf("abandoned=%d failure=%+v", st.SendsAbandoned, c.PeerFailure())
	}
}
