package fastgm

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// sendPoolBytes pins the arena's registered footprint: what the per-class
// pool it replaced registered, 4·(16+32+64+128) + (256+…+32,768). A change
// here moves gm.pinned_peak_mb and E5's pinned column.
const sendPoolBytes = 66240

// testTransport returns an unstarted default transport for rank 0 of 2.
func testTransport() (*sim.Simulator, *gm.System, *Transport) {
	s := sim.New(1)
	sys := gm.NewSystem(s, myrinet.NewFabric(s, myrinet.DefaultParams(), 2), gm.DefaultParams())
	return s, sys, New(sys.Node(0), 0, 2, DefaultConfig())
}

// testArena returns a fresh arena of the production size and the longest
// frame a sender can ask it for (a maximal GM message plus a tag byte).
func testArena(t testing.TB) (*SendPool, int) {
	_, sys, tr := testTransport()
	if n := tr.SendPoolBytes(1); n != sendPoolBytes {
		t.Fatalf("SendPoolBytes(1) = %d, want %d", n, sendPoolBytes)
	}
	return NewSendPool("arena", sys.Node(0).RegisterAtBoot(sendPoolBytes)), sys.Params().MaxMessage() + 1
}

// runArenaScript interprets script as take/put operations on an idle
// arena, three bytes each — an op byte (even: take, odd: put) and a
// little-endian operand (a length, or which held buffer to return) —
// checking the allocator's invariants after every step. It leaves the arena
// idle again and returns the offset every take got (−1 for a refusal).
func runArenaScript(t testing.TB, sp *SendPool, maxFrame int, script []byte) []int {
	var held []*gm.Buffer
	var offsets []int
	check := func() {
		t.Helper()
		spans := slices.Clone(sp.free)
		for i, f := range sp.free {
			if f.n <= 0 || i > 0 && sp.free[i-1].off+sp.free[i-1].n >= f.off {
				t.Fatalf("free list not sorted and coalesced: %v", sp.free)
			}
		}
		for _, b := range held {
			spans = append(spans, span{b.Offset(), len(b.Bytes())})
		}
		slices.SortFunc(spans, func(a, b span) int { return a.off - b.off })
		next := 0
		for _, s := range spans {
			if s.off != next || s.off%8 != 0 {
				t.Fatalf("spans overlap, leave a gap or lose alignment at %d: %v", next, spans)
			}
			next = s.off + s.n
		}
		if next != sendPoolBytes {
			t.Fatalf("spans cover %d bytes of %d: %v", next, sendPoolBytes, spans)
		}
	}
	for ; len(script) >= 3; script = script[3:] {
		arg := int(binary.LittleEndian.Uint16(script[1:]))
		if script[0]%2 == 0 {
			n := 1 + arg%maxFrame
			b := sp.TryTake(n)
			if b == nil {
				offsets = append(offsets, -1)
				continue
			}
			if len(b.Bytes()) < n || &b.Bytes()[0] != &sp.mem.Bytes()[b.Offset()] {
				t.Fatalf("take(%d) got %d bytes at %d, not that span of the region", n, len(b.Bytes()), b.Offset())
			}
			held = append(held, b)
			offsets = append(offsets, b.Offset())
		} else if len(held) > 0 {
			i := arg % len(held)
			sp.Put(held[i])
			held = slices.Delete(held, i, i+1)
		}
		check()
	}
	for _, b := range held {
		sp.Put(b)
	}
	held = nil
	check()
	if len(sp.free) != 1 || sp.free[0] != (span{0, sendPoolBytes}) {
		t.Fatalf("nothing in flight, yet free space is %v, not one span", sp.free)
	}
	b := sp.TryTake(maxFrame)
	if b == nil {
		t.Fatalf("a maximal %d-byte frame does not fit the empty arena", maxFrame)
	}
	sp.Put(b)
	return offsets
}

// arenaScript encodes (op, operand) pairs in runArenaScript's format.
func arenaScript(ops ...int) []byte {
	var out []byte
	for i := 0; i+1 < len(ops); i += 2 {
		out = binary.LittleEndian.AppendUint16(append(out, byte(ops[i])), uint16(ops[i+1]))
	}
	return out
}

// FuzzSendArena drives the send arena with arbitrary take/put scripts.
// Invariants: taken and free spans tile the region exactly (no overlap, no
// escape, 8-byte aligned), the free list stays sorted and coalesced, free
// space returns to one span once nothing is in flight, a maximal frame then
// fits, and the same script yields the same offsets.
func FuzzSendArena(f *testing.F) {
	const take, put = 0, 1
	f.Add(arenaScript(take, 4119, take, 4119, put, 0, take, 16, put, 1, put, 0)) // page replies and an ack
	f.Add(arenaScript(take, 32768, take, 32768, take, 0, put, 0, take, 32768))   // maximal frames exhaust it
	f.Add(arenaScript(take, 0, take, 1, take, 2, put, 1, put, 0, put, 0))        // free the middle, then both sides
	f.Add(arenaScript(put, 0, put, 9, take, 7))                                  // puts with nothing held
	f.Add([]byte{0, 1})                                                          // truncated op
	sp, maxFrame := testArena(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*512 {
			script = script[:3*512]
		}
		if a, b := runArenaScript(t, sp, maxFrame, script), runArenaScript(t, sp, maxFrame, script); !slices.Equal(a, b) {
			t.Fatalf("same script, different offsets:\n%v\n%v", a, b)
		}
	})
}

// TestSendArenaProperties runs the fuzz target's checker over seeded random
// scripts (the fuzz smoke explores; this is the deterministic floor), with
// sizes drawn from the protocol's mix: acks, diff replies, page replies and
// the occasional maximal frame.
func TestSendArenaProperties(t *testing.T) {
	sp, maxFrame := testArena(t)
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 15, 40, 127, 900, 4119, 8200, 32768}
	for i := 0; i < 200; i++ {
		var ops []int
		for j := 0; j < 300; j++ {
			if rng.Intn(5) < 3 {
				ops = append(ops, 0, sizes[rng.Intn(len(sizes))])
			} else {
				ops = append(ops, 1, rng.Intn(1<<16))
			}
		}
		runArenaScript(t, sp, maxFrame, arenaScript(ops...))
	}
}

// TestSendArenaHoldsWhatFits is the point of carving by length: the bytes
// that gave the per-class pool one page-sized buffer hold a page reply to
// each of fifteen peers at once; takes are first fit from the bottom; and
// a steady take/put cycle allocates nothing (headers are recycled).
func TestSendArenaHoldsWhatFits(t *testing.T) {
	sp, _ := testArena(t)
	const pageReply = 4096 + 24
	var held []*gm.Buffer
	for i := 0; i < 15; i++ {
		b := sp.TryTake(pageReply)
		if b == nil {
			t.Fatalf("page reply %d of 15 does not fit", i+1)
		}
		if b.Offset() != i*pageReply {
			t.Errorf("page reply %d at offset %d, want %d (first fit, packed)", i, b.Offset(), i*pageReply)
		}
		held = append(held, b)
	}
	sp.Put(held[3])
	if b := sp.TryTake(100); b == nil || b.Offset() != 3*pageReply {
		t.Errorf("a short frame did not take the lowest hole: %+v", b)
	}
	sp, _ = testArena(t)
	if avg := testing.AllocsPerRun(100, func() {
		a, b := sp.TryTake(pageReply), sp.TryTake(16)
		sp.Put(a)
		sp.Put(b)
	}); avg != 0 {
		t.Errorf("a take/put cycle allocates %.1f objects, want 0", avg)
	}
}

// TestTakeSendBufferTimesTheStall: a sender that finds the arena full is
// counted once and charged the virtual time it was parked; one that finds
// room is charged nothing.
func TestTakeSendBufferTimesTheStall(t *testing.T) {
	s, _, tr := testTransport()
	s.Spawn("sender", 0, func(p *sim.Proc) {
		tr.Start(p, func(*sim.Proc, *msg.Message) {})
		all := tr.sendPool.TryTake(sendPoolBytes)
		if all == nil {
			t.Error("the idle arena is not one free span")
			return
		}
		s.After(5*sim.Millisecond, func() { tr.sendPool.Put(all) })
		tr.sendPool.Put(tr.TakeSendBuffer(p, tr.sendPool, 100))
		tr.sendPool.Put(tr.TakeSendBuffer(p, tr.sendPool, 100))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SendBufStalls != 1 || st.SendBufWait != 5*sim.Millisecond {
		t.Errorf("stalls=%d wait=%v, want 1 stall of 5ms", st.SendBufStalls, st.SendBufWait)
	}
}
