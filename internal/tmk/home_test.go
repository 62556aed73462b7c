package tmk

import (
	"bytes"
	"testing"

	"repro/internal/gm"
	"repro/internal/substrate"
)

// testPutSize sizes a Put the way rdmagm frames one: a 13-byte header and
// an 8-byte range per segment ahead of the payload.
func testPutSize(nseg, payload int) int { return 13 + 8*nseg + payload }

func newTestPacker() *homePacker {
	return &homePacker{size: testPutSize, open: map[int]int{},
		limit: gm.ClassCapacity(gm.DefaultParams().ClassFor(testPutSize(1, PageSize)))}
}

// pageDiff encodes the diff of a zero page against one whose every
// stride-th word (from word 0) is set to fill.
func pageDiff(fill byte, stride int) []byte {
	cur := make([]byte, PageSize)
	for w := 0; w < wordsPerPage; w += stride {
		copy(cur[w*4:], []byte{fill, fill, fill, fill})
	}
	return EncodeDiff(make([]byte, PageSize), cur)
}

// applyPuts deposits every packed segment into the (home, window) memory
// it addresses.
func applyPuts(t *testing.T, puts []homePut, mem map[[2]int][]byte) {
	t.Helper()
	for _, put := range puts {
		win := mem[[2]int{put.home, int(put.window)}]
		payload := 0
		for _, s := range put.segs {
			if s.Off < 0 || s.Off+len(s.Data) > len(win) {
				t.Fatalf("segment [%d,+%d) outside the %d-byte window", s.Off, len(s.Data), len(win))
			}
			copy(win[s.Off:], s.Data)
			payload += len(s.Data)
		}
		if payload != put.payload {
			t.Errorf("frame counts %d payload bytes, carries %d", put.payload, payload)
		}
	}
}

// TestHomePackerDensePagesSplit: twelve dirty pages on one home — ten
// dense, two red-black sparse — cannot share one frame. They split into
// several, each within the size class of a single dense page (so far
// below GM's MaxMessage), a dense page stays a frame of its own, the
// sparse ones share, and the window ends bit-equal to applying every diff
// run by run.
func TestHomePackerDensePagesSplit(t *testing.T) {
	hp := newTestPacker()
	const pages = 12
	want := make([]byte, pages*PageSize)
	total := 0
	for pg := 0; pg < pages; pg++ {
		stride := 1
		if pg >= 10 {
			stride = 4 // two-word runs every four words, as red-black SOR leaves a row
		}
		diff := pageDiff(byte(pg+1), stride)
		if err := ApplyDiff(want[pg*PageSize:(pg+1)*PageSize], diff); err != nil {
			t.Fatal(err)
		}
		total += hp.add(0, 3, pg*PageSize, diff)
	}
	if len(hp.puts) != 11 {
		t.Errorf("packed %d frames, want 11 (ten dense pages alone, two sparse pages together)", len(hp.puts))
	}
	sent := 0
	for i, put := range hp.puts {
		n := testPutSize(len(put.segs), put.payload)
		if n > hp.limit || n > gm.DefaultParams().MaxMessage() {
			t.Errorf("frame %d is %d bytes, over the %d-byte limit", i, n, hp.limit)
		}
		if put.home != 0 || put.window != 3 {
			t.Errorf("frame %d addressed to home %d window %d", i, put.home, put.window)
		}
		sent += put.payload
	}
	if sent != total {
		t.Errorf("frames carry %d payload bytes, add reported %d", sent, total)
	}
	got := make([]byte, pages*PageSize)
	applyPuts(t, hp.puts, map[[2]int][]byte{{0, 3}: got})
	if !bytes.Equal(got, want) {
		t.Error("home window differs from applying each diff run by run")
	}
}

// TestHomePackerWorstCasePageFits: the most runs a page can encode
// (every other word) still fits one frame, so add never has to split a
// page and no frame can reach post's frame-cap panic.
func TestHomePackerWorstCasePageFits(t *testing.T) {
	hp := newTestPacker()
	for pg := 0; pg < 64; pg++ {
		hp.add(1, 0, pg*PageSize, pageDiff(0xEE, 2))
	}
	if len(hp.puts) != 64 {
		t.Errorf("packed %d frames for 64 worst-case pages, want one each", len(hp.puts))
	}
	for i, put := range hp.puts {
		if n := testPutSize(len(put.segs), put.payload); len(put.segs) != wordsPerPage/2 || n > hp.limit {
			t.Errorf("frame %d: %d segments, %d bytes (limit %d)", i, len(put.segs), n, hp.limit)
		}
	}
}

// TestHomePackerEmptyDiffs: a page dirtied but left unchanged encodes an
// empty diff, contributes no segment and opens no frame.
func TestHomePackerEmptyDiffs(t *testing.T) {
	hp := newTestPacker()
	if n := hp.add(2, 0, 0, nil); n != 0 || len(hp.puts) != 0 {
		t.Errorf("an empty diff added %d bytes and %d frames", n, len(hp.puts))
	}
	hp.add(2, 0, PageSize, pageDiff(5, 64))
	hp.add(2, 0, 2*PageSize, EncodeDiff(make([]byte, PageSize), make([]byte, PageSize)))
	if len(hp.puts) != 1 || len(hp.puts[0].segs) != wordsPerPage/64 {
		t.Errorf("frames %+v, want one frame holding only the changed page's segments", hp.puts)
	}
}

// TestHomePackerKeepsHomesAndRegionsApart: frames never mix homes, and
// two regions with the same home never share a frame (a Put names one
// window) — a page of the first region after the second opens a new one.
func TestHomePackerKeepsHomesAndRegionsApart(t *testing.T) {
	hp := newTestPacker()
	sparse := pageDiff(9, 128)
	hp.add(1, 0, 0, sparse)          // home 1, region 0
	hp.add(2, 0, PageSize, sparse)   // home 2, region 0
	hp.add(1, 0, 2*PageSize, sparse) // joins home 1's open frame
	hp.add(1, 1, 0, sparse)          // same home, other region: new frame
	hp.add(1, 0, 3*PageSize, sparse) // back to region 0: new frame again
	type key struct {
		home   int
		window int32
		nseg   int
	}
	var got []key
	for _, put := range hp.puts {
		got = append(got, key{put.home, put.window, len(put.segs)})
	}
	per := wordsPerPage / 128
	want := []key{{1, 0, 2 * per}, {2, 0, per}, {1, 1, per}, {1, 0, per}}
	if len(got) != len(want) {
		t.Fatalf("frames %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d is %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestHomeFlushEndToEnd runs the packer under the real protocol on
// rdmagm: rank 1 densely rewrites ten pages homed at rank 0 and ten of
// its own, so the flush ships exactly the foreign ten — in more than one
// Put but no more than one per page — and rank 0 reads its window back
// exact. A second interval that stores the same values again dirties the
// pages without changing them: it flushes pages but posts no verb.
func TestHomeFlushEndToEnd(t *testing.T) {
	const pages = 20
	var afterFirst, afterSecond substrate.Stats
	res, err := Run(DefaultConfig(2, TransportRDMAGM), func(tp *Proc) {
		r := tp.AllocShared(pages * PageSize)
		fill := func() {
			for pg := 0; pg < pages; pg++ {
				tp.WriteAt(r, pg*PageSize, bytes.Repeat([]byte{byte(pg + 1)}, PageSize))
			}
		}
		tp.Barrier(1)
		if tp.Rank() == 1 {
			fill()
		}
		tp.Barrier(2)
		if tp.Rank() == 1 {
			afterFirst = *tp.tr.Stats()
			fill()
		}
		tp.Barrier(3)
		if tp.Rank() == 1 {
			afterSecond = *tp.tr.Stats()
		}
		if tp.Rank() == 0 {
			for pg := 0; pg < pages; pg++ {
				if got := tp.ReadBytes(r, pg*PageSize, PageSize); !bytes.Equal(got, bytes.Repeat([]byte{byte(pg + 1)}, PageSize)) {
					t.Errorf("page %d read back wrong at the home", pg)
				}
			}
		}
		tp.Barrier(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterFirst.OneSidedPuts < 2 || afterFirst.OneSidedPuts > pages/2 ||
		afterFirst.OneSidedBytesPut != pages/2*PageSize {
		t.Errorf("first interval: %d puts carrying %d bytes, want 2..%d puts carrying %d",
			afterFirst.OneSidedPuts, afterFirst.OneSidedBytesPut, pages/2, pages/2*PageSize)
	}
	if afterSecond.OneSidedPuts != afterFirst.OneSidedPuts {
		t.Errorf("an interval of empty diffs posted %d puts", afterSecond.OneSidedPuts-afterFirst.OneSidedPuts)
	}
	if res.Stats.HomeFlushes != pages || res.Stats.HomeFlushBytes != res.Transport.OneSidedBytesPut {
		t.Errorf("flushed %d pages / %d bytes against %d bytes put; want %d pages (self-homed ones skipped) and equal bytes",
			res.Stats.HomeFlushes, res.Stats.HomeFlushBytes, res.Transport.OneSidedBytesPut, pages)
	}
}
