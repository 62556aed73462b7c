package rdmagm

import (
	"bytes"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
)

// fuzzCluster builds a minimal two-rank RDMA/GM world: rank 0 the verb
// target with window 1 registered, rank 1 an initiator with one genuine
// Put outstanding (so fuzzed completions can collide with a live verb).
// The run callback receives both started transports inside rank 1's
// process context.
func fuzzCluster(t *testing.T, run func(p *sim.Proc, target, initiator *Transport)) {
	s := sim.New(1)
	fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), 2)
	sys := gm.NewSystem(s, fabric, gm.DefaultParams())
	tr0 := New(sys.Node(0), 0, 2, fastgm.Config{})
	tr1 := New(sys.Node(1), 1, 2, fastgm.Config{})
	noop := func(p *sim.Proc, m *msg.Message) {}
	win := make([]byte, 4096)
	s.Spawn("target", 0, func(p *sim.Proc) {
		tr0.Start(p, noop)
		tr0.RegisterWindow(p, 1, win)
		// Stay interruptible while the initiator's traffic lands.
		p.Advance(sim.Second)
	})
	s.Spawn("initiator", 0, func(p *sim.Proc) {
		tr1.Start(p, noop)
		p.Advance(sim.Millisecond) // window registered by now
		run(p, tr0, tr1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim failed to drain: %v", err)
	}
}

// deliver hands raw bytes to a port-frame consumer the way GM would:
// in a registered receive buffer of the top class.
func deliver(p *sim.Proc, node *gm.Node, from myrinet.NodeID, fromPort int, data []byte) *gm.Recv {
	params := node.System().Params()
	mem := node.Register(p, gm.ClassCapacity(params.MaxClass))
	buf := mem.SubBuffer(0, params.MaxClass)
	n := copy(buf.Bytes(), data)
	return &gm.Recv{From: from, FromPort: fromPort, Class: params.MaxClass,
		Data: buf.Bytes()[:n], Buffer: buf}
}

// FuzzHandleVerbFrame feeds arbitrary bytes to the verb-port sink — the
// NIC-firmware surface a faulty fabric attacks: truncated descriptors,
// Put segment vectors whose lengths disagree with the frame's, ranges
// outside the window, negative offsets, unknown window ids, unknown tags. Every input is delivered twice because GM-level recovery
// redelivers frames, so the duplicate-verb filter (no re-execution,
// cached-completion resend) is on the fuzzed path too. The invariant:
// never panic, never deadlock, never DMA outside the window, never apply
// part of a Put — malformed frames are counted and their receive buffers
// recycled.
func FuzzHandleVerbFrame(f *testing.F) {
	seed := func(vf *verbFrame) []byte {
		b := make([]byte, verbFrameLen(vf))
		encodeVerb(b, vf)
		return b
	}
	put := func(seq uint32, segs ...substrate.PutSeg) []byte {
		return seed(&verbFrame{op: frameVerbPut, origin: 1, seq: seq, window: 1, segs: segs})
	}
	seg := func(off, n int) substrate.PutSeg {
		return substrate.PutSeg{Off: off, Data: bytes.Repeat([]byte{0xAB}, n)}
	}
	f.Add(put(1, substrate.PutSeg{Off: 64, Data: []byte{1, 2, 3, 4}})) // well-formed contiguous put
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 2, window: 1, off: 0, length: 128}))
	f.Add(put(3, seg(0, 8), seg(8, 0), seg(8, 8), seg(4000, 96)))                               // vector put: adjacent and empty segments
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 4, window: 99, off: 0, length: 8})) // unknown window
	f.Add(put(5, seg(4090, 16)))                                                                // straddles the window end
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 6, window: 1, off: -4, length: 8})) // negative offset
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 77, seq: 7, window: 1, off: 0, length: 8})) // absurd origin
	f.Add(put(8))                                                                               // no segments at all
	f.Add(put(9, seg(0, 16), seg(32, 16), seg(4096, 1)))                                        // last segment past the window end: nothing may land
	f.Add(put(10, seg(100, 64), seg(120, 64), seg(100, 8)))                                     // overlapping segments apply in order
	two := put(11, seg(0, 16), seg(64, 16))
	f.Add(two[:len(two)-16-3]) // frame ends inside the second segment's header
	f.Add(two[:len(two)-5])    // second segment claims more bytes than the frame holds
	f.Add(append(two, 0xEE))   // stray bytes after the last segment
	huge := put(12, seg(0, 16))
	putRange(huge[verbHeaderLen:], 0, 1<<30) // a length no frame could carry
	f.Add(huge)
	f.Add([]byte{frameCompletion, 1, 2, 3}) // completion tag on the verb port
	f.Add([]byte{})
	f.Add([]byte{250, 1, 2, 3}) // unknown tag

	f.Fuzz(func(t *testing.T, data []byte) {
		params := gm.DefaultParams()
		if len(data) > params.MaxMessage() {
			data = data[:params.MaxMessage()]
		}
		fuzzCluster(t, func(p *sim.Proc, target, initiator *Transport) {
			for i := 0; i < 2; i++ { // redelivery: the dup filter must hold
				target.onVerbFrame(deliver(p, target.node, 1, VerbPort, data))
			}
			// All or nothing: a Put with any segment outside the window
			// must not have deposited its in-bounds segments either.
			win := target.windows[1]
			var vf verbFrame
			if err := vf.decode(data); err == nil && vf.op == frameVerbPut && vf.window == 1 {
				if _, _, bad := vf.outside(len(win)); bad && !bytes.Equal(win, make([]byte, len(win))) {
					t.Fatal("a faulting Put wrote part of its segments")
				}
			}
		})
	})
}

// FuzzHandleCompletion feeds arbitrary bytes to the initiator's
// completion-queue reaper while a genuine Put is outstanding: malformed
// entries, completions whose sequence matches the live verb but whose op
// does not, stale completions for long-resolved verbs, duplicated acks
// (every input arrives twice — the second must land on the
// stale-completion path, never resolve a verb twice). The invariant:
// never panic, never unblock a verb with the wrong result, always
// recycle the CQ buffer.
func FuzzHandleCompletion(f *testing.F) {
	// Completions answering the outstanding put (seq 1): matched op,
	// mismatched op, fault statuses, trailing garbage.
	okPut := encodeCompletion(nil, 0, &verbFrame{op: frameVerbPut, seq: 1}, compOK, nil, 0)
	f.Add(okPut)
	f.Add(append(okPut, 0xEE))                                                                  // put completion with trailing bytes
	f.Add(encodeCompletion(nil, 0, &verbFrame{op: frameVerbGet, seq: 1}, compOK, []byte{9}, 0)) // wrong op for seq 1
	f.Add(encodeCompletion(nil, 0, &verbFrame{op: 0x13, seq: 1}, compOK, nil, 0))               // unknown op for seq 1
	f.Add(encodeCompletion(nil, 0, &verbFrame{op: frameVerbPut, seq: 1, window: 1, off: 4, length: 8},
		compOOB, nil, 4096)) // bounds fault for the live verb
	f.Add(encodeCompletion(nil, 0, &verbFrame{op: frameVerbPut, seq: 900}, compOK, nil, 0)) // stale seq
	badStatus := append([]byte(nil), okPut...)
	badStatus[10] = 9 // unknown status
	f.Add(badStatus)
	f.Add(okPut[:compHeaderLen-3])          // truncated header
	f.Add([]byte{frameVerbPut, 1, 2, 3, 4}) // verb tag on the CQ port
	f.Add([]byte{})
	f.Add([]byte{250, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		params := gm.DefaultParams()
		if len(data) > params.MaxMessage() {
			data = data[:params.MaxMessage()]
		}
		fuzzCluster(t, func(p *sim.Proc, target, initiator *Transport) {
			pv := initiator.PostPut(p, 0, 1, substrate.PutSeg{Data: []byte{1, 2, 3, 4}}) // live verb, seq 1
			for i := 0; i < 2; i++ {                                                     // duplicated ack: second copy must be stale
				initiator.handleCompletion(p, deliver(p, initiator.node, 0, CQPort, data))
			}
			// However the fuzzed entries collided with it, the genuine verb
			// must still resolve exactly once.
			if err := initiator.WaitVerbs(p, []substrate.PendingVerb{pv}); err != nil {
				if _, ok := err.(*substrate.WindowBoundsError); !ok {
					t.Fatalf("outstanding put resolved with unexpected error: %v", err)
				}
			}
		})
	})
}
