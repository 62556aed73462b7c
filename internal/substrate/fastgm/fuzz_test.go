package fastgm

import (
	"encoding/binary"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// FuzzHandleAsyncFrame feeds arbitrary bytes to the async-port frame
// dispatcher — the surface a faulty fabric attacks: truncated frames,
// corrupted message encodings, malformed RTS/CTS control frames, unknown
// tags. Every input is delivered twice because GM-level recovery
// redelivers frames, so the duplicate filters (request dedup, seenRTS,
// staged-CTS) are on the fuzzed path too. The invariant under test:
// never panic, never deadlock — malformed traffic is counted in
// CorruptFrames/DupRequests and its receive buffer recycled; a frame under
// a tag the transport does not speak is corrupt on both deliveries.
func FuzzHandleAsyncFrame(f *testing.F) {
	valid := (&msg.Message{Kind: msg.KPing, Seq: 7, From: 1, ReplyTo: 1}).Encode()
	f.Add(append([]byte{frameMsg}, valid...))                // well-formed request
	f.Add(append([]byte{frameData}, valid...))               // data frame in a non-pinned buffer
	f.Add(append([]byte{frameMsg}, valid[:len(valid)/2]...)) // truncated encoding
	rts := make([]byte, 7)
	rts[0] = frameRTS
	binary.LittleEndian.PutUint32(rts[1:], 3)
	rts[5] = 13       // class
	rts[6] = SyncPort // destination port
	f.Add(rts)
	f.Add([]byte{frameRTS, 9, 9})               // truncated RTS
	f.Add([]byte{frameRTS, 0, 0, 0, 0, 200, 9}) // RTS with absurd class and port
	f.Add([]byte{frameCTS, 1, 0, 0, 0})         // CTS with nothing staged
	f.Add([]byte{frameCTS})                     // truncated CTS
	f.Add([]byte{})                             // empty frame
	f.Add([]byte{250, 1, 2, 3})                 // unknown tag
	f.Add([]byte{6, 10, 1, 0})                  // the retired credit-return tag: a class-10 entry

	f.Fuzz(func(t *testing.T, data []byte) {
		params := gm.DefaultParams()
		if len(data) > params.MaxMessage() {
			data = data[:params.MaxMessage()]
		}
		s := sim.New(1)
		fabric := myrinet.NewFabric(s, myrinet.DefaultParams(), 2)
		sys := gm.NewSystem(s, fabric, params)
		tr0 := New(sys.Node(0), 0, 2, substrate.Policy{}, DefaultConfig())
		tr1 := New(sys.Node(1), 1, 2, substrate.Policy{}, DefaultConfig())
		noop := func(p *sim.Proc, m *msg.Message) {}
		s.Spawn("peer", 0, func(p *sim.Proc) {
			tr1.Start(p, noop)
			// Stay interruptible: a fuzzed RTS makes the target answer with
			// a real CTS, which lands here.
			p.Advance(sim.Second)
		})
		s.Spawn("target", 0, func(p *sim.Proc) {
			tr0.Start(p, noop)
			for i := 0; i < 2; i++ { // redelivery: the dedup paths must hold
				mem := sys.Node(0).Register(p, gm.ClassCapacity(params.MaxClass))
				buf := mem.SubBuffer(0, params.MaxClass)
				n := copy(buf.Bytes(), data)
				rv := &gm.Recv{From: 1, FromPort: AsyncPort, Class: params.MaxClass,
					Data: buf.Bytes()[:n], Buffer: buf}
				tr0.handleAsyncFrame(p, rv)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("sim failed to drain after frame %x: %v", data, err)
		}
		if len(data) > 0 && (data[0] == 0 || data[0] > frameHB) && tr0.Stats().CorruptFrames != 2 {
			t.Errorf("frame %x under unknown tag %d: %d corrupt frames, want 2", data, data[0], tr0.Stats().CorruptFrames)
		}
	})
}
