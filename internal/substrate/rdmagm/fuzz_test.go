package rdmagm

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
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
	tr0 := New(sys.Node(0), 0, 2, DefaultConfig())
	tr1 := New(sys.Node(1), 1, 2, DefaultConfig())
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
// ops with inconsistent lengths, negative offsets, unknown window ids,
// unknown tags. Every input is delivered twice because GM-level recovery
// redelivers frames, so the duplicate-verb filter (no re-execution,
// cached-completion resend) is on the fuzzed path too. The invariant:
// never panic, never deadlock, never DMA outside the window — malformed
// frames are counted and their receive buffers recycled.
func FuzzHandleVerbFrame(f *testing.F) {
	seed := func(vf *verbFrame) []byte {
		b := make([]byte, verbFrameLen(vf))
		encodeVerb(b, vf)
		return b
	}
	f.Add(seed(&verbFrame{op: frameVerbPut, origin: 1, seq: 1, window: 1, off: 64,
		length: 4, payload: []byte{1, 2, 3, 4}})) // well-formed put
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 2, window: 1, off: 0, length: 128}))
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 4, window: 99, off: 0, length: 8})) // unknown window
	f.Add(seed(&verbFrame{op: frameVerbPut, origin: 1, seq: 5, window: 1, off: 4090,
		length: 16, payload: make([]byte, 16)})) // straddles the window end
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 1, seq: 6, window: 1, off: -4, length: 8})) // negative offset
	f.Add(seed(&verbFrame{op: frameVerbGet, origin: 77, seq: 7, window: 1, off: 0, length: 8})) // absurd origin
	truncated := seed(&verbFrame{op: frameVerbPut, origin: 1, seq: 8, window: 1, off: 0,
		length: 64, payload: make([]byte, 64)})
	f.Add(truncated[:verbHeaderLen+10])     // payload shorter than header claims
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
	okPut := encodeCompletion(0, &verbFrame{op: frameVerbPut, seq: 1}, compOK, nil, 0)
	f.Add(okPut)
	f.Add(append(okPut, 0xEE))                                                             // put completion with trailing bytes
	f.Add(encodeCompletion(0, &verbFrame{op: frameVerbGet, seq: 1}, compOK, []byte{9}, 0)) // wrong op for seq 1
	f.Add(encodeCompletion(0, &verbFrame{op: 0x13, seq: 1}, compOK, nil, 0))               // unknown op for seq 1
	f.Add(encodeCompletion(0, &verbFrame{op: frameVerbPut, seq: 1, window: 1, off: 4, length: 8},
		compOOB, nil, 4096)) // bounds fault for the live verb
	f.Add(encodeCompletion(0, &verbFrame{op: frameVerbPut, seq: 900}, compOK, nil, 0)) // stale seq
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
			pv := initiator.PostPut(p, 0, 1, 0, []byte{1, 2, 3, 4}) // live verb, seq 1
			for i := 0; i < 2; i++ {                                // duplicated ack: second copy must be stale
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
