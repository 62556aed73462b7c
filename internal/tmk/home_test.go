package tmk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gm"
	"repro/internal/sim"
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

// TestHomesFollowTheSoleWriter drives the placement rule through real
// barriers on rdmagm, one page, four ranks: each case lists who writes the
// page in each barrier epoch (distinct words, so several writers are legal)
// and where every rank must place its home after each barrier. The page's
// static home is rank 0, which never writes it.
func TestHomesFollowTheSoleWriter(t *testing.T) {
	type epoch = []int
	cases := []struct {
		name    string
		writers []epoch
		homes   []int // after each epoch's barrier, on every rank
		locked  bool  // writers take lock 0 around the write (tsp's shape)
	}{
		{name: "same sole writer twice moves at the second barrier",
			writers: []epoch{{1}, {1}, {1}}, homes: []int{0, 1, 1}},
		{name: "two writers stay put and clear the candidate",
			writers: []epoch{{1}, {1, 2}, {1}, {1}}, homes: []int{0, 0, 0, 1}},
		{name: "alternating sole writers never move",
			writers: []epoch{{1}, {2}, {1}, {2}, {1}}, homes: []int{0, 0, 0, 0, 0}},
		{name: "an epoch that does not write neither counts nor resets",
			writers: []epoch{{2}, {}, {}, {2}, {}, {3}, {}, {3}}, homes: []int{0, 0, 0, 2, 2, 2, 2, 3}},
		{name: "the static home as sole writer is no move",
			writers: []epoch{{0}, {0}, {0}}, homes: []int{0, 0, 0}},
		{name: "lock-only sharing never moves",
			writers: []epoch{{0, 1, 2, 3}, {1, 2, 3}, {1, 2, 3}}, homes: []int{0, 0, 0}, locked: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			cfg := DefaultConfig(n, TransportRDMAGM)
			got := make([][n]int, len(tc.writers))
			res, err := Run(cfg, func(tp *Proc) {
				r := tp.AllocShared(n * PageSize) // page 0 of the region is homed at rank 0
				tp.Barrier(1)
				for e, ws := range tc.writers {
					for _, w := range ws {
						if w != tp.Rank() {
							continue
						}
						if tc.locked {
							tp.LockAcquire(0)
						}
						tp.WriteI32(r, w, int32(100*e+w+1))
						if tc.locked {
							tp.LockRelease(0)
						}
					}
					tp.Barrier(int32(2 + e))
					got[e][tp.Rank()] = tp.HomeOf(r.StartPage)
				}
				// Whoever is home now, every rank reads every writer's last word.
				last := map[int]int{}
				for e, ws := range tc.writers {
					for _, w := range ws {
						last[w] = e
					}
				}
				for w, e := range last {
					if v := tp.ReadI32(r, w); v != int32(100*e+w+1) {
						t.Errorf("rank %d reads %d in rank %d's word, want %d", tp.Rank(), v, w, 100*e+w+1)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			moves := int64(0)
			for e, want := range tc.homes {
				for rank, h := range got[e] {
					if h != want {
						t.Errorf("after epoch %d rank %d homes the page at %d, want %d", e, rank, h, want)
					}
				}
				if e > 0 && want != tc.homes[e-1] {
					moves++
				}
			}
			if res.Stats.HomeMoves != moves {
				t.Errorf("Stats.HomeMoves = %d, want %d", res.Stats.HomeMoves, moves)
			}
		})
	}
}

// TestHomeWritesAreTwinFree: once a page is homed at its writer, writing
// it twins nothing, diffs nothing and flushes nothing, while every other
// rank still sees each new value (notice, invalidation and home fetch are
// unchanged).
func TestHomeWritesAreTwinFree(t *testing.T) {
	const n, rounds = 4, 6
	var settled Stats
	res, err := Run(DefaultConfig(n, TransportRDMAGM), func(tp *Proc) {
		r := tp.AllocShared(n * PageSize)
		tp.Barrier(1)
		for e := 0; e < rounds; e++ {
			if tp.Rank() == 1 {
				if e == 2 { // homed here from the second barrier on
					settled = tp.stats
				}
				tp.WriteI32(r, 0, int32(e+1))
			}
			tp.Barrier(int32(2 + 2*e))
			if v := tp.ReadI32(r, 0); v != int32(e+1) {
				t.Errorf("round %d: rank %d reads %d", e, tp.Rank(), v)
			}
			tp.Barrier(int32(3 + 2*e)) // reads done before the next write
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Stats // only rank 1 writes, so the cluster's writer-side counters are its own
	if w.TwinsCreated != settled.TwinsCreated || w.DiffsCreated != settled.DiffsCreated || w.HomeFlushes != settled.HomeFlushes {
		t.Errorf("after the move: twins %d→%d diffs %d→%d flushes %d→%d, want no growth",
			settled.TwinsCreated, w.TwinsCreated, settled.DiffsCreated, w.DiffsCreated, settled.HomeFlushes, w.HomeFlushes)
	}
	if w.WriteFaults != rounds || w.IntervalsCreated != rounds {
		t.Errorf("%d write faults and %d intervals for %d rounds: the write path must still fault and publish", w.WriteFaults, w.IntervalsCreated, rounds)
	}
}

// TestBarrierVCAgreesOnEveryRank: the vector clock a barrier is remembered
// by (lastBarrierVC — what the next arrival, the metadata prune and the
// placement rule all count from) must be the same on every rank after
// every crossing. It used to be read after delivery was re-enabled, where
// a root or tree-internal node may already have merged a released child's
// next arrival. Jacobi's shape at N=64 and 30 ns per point is short enough
// per sweep for that: a child is back before its parent has released the
// rest.
func TestBarrierVCAgreesOnEveryRank(t *testing.T) {
	const n, grid, sweeps = 16, 64, 8
	for _, fanout := range []int{0, 2} {
		for _, kind := range []TransportKind{TransportFastGM, TransportRDMAGM} {
			t.Run(fmt.Sprintf("%s/fanout%d", kind, fanout), func(t *testing.T) {
				cfg := DefaultConfig(n, kind)
				cfg.BarrierFanout = fanout
				vcs := make([][n]VC, sweeps+1)
				_, err := Run(cfg, func(tp *Proc) {
					a, b := tp.AllocShared(grid*grid*8), tp.AllocShared(grid*grid*8)
					lo := 1 + tp.Rank()*(grid-2)/n
					hi := 1 + (tp.Rank()+1)*(grid-2)/n
					tp.Barrier(1)
					vcs[0][tp.Rank()] = tp.lastBarrierVC.Clone()
					up, down := make([]float64, grid), make([]float64, grid)
					for s := 1; s <= sweeps; s++ {
						for i := lo; i < hi; i++ {
							tp.ReadF64Span(a, (i-1)*grid, up)
							tp.ReadF64Span(a, (i+1)*grid, down)
							row := make([]float64, grid-2)
							for j := range row {
								row[j] = (up[j+1] + down[j+1]) / 2
							}
							tp.WriteF64Span(b, i*grid+1, row)
						}
						tp.Compute(sim.Time((hi-lo)*(grid-2)) * 30 * sim.Nanosecond)
						tp.Barrier(int32(1 + s))
						vcs[s][tp.Rank()] = tp.lastBarrierVC.Clone()
						a, b = b, a
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for s, byRank := range vcs {
					for rank, vc := range byRank {
						if fmt.Sprint(vc) != fmt.Sprint(byRank[0]) {
							t.Fatalf("crossing %d: rank %d remembers the barrier as %v, rank 0 as %v", s, rank, vc, byRank[0])
						}
					}
				}
			})
		}
	}
}
