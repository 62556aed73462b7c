package tmk_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Read faults over a span, three ranks: rank 0 writes every slot of a
// region, rank 1 reads it back after a barrier, rank 2 only crosses the
// barriers. On rdmagm (home-based) block placement homes pages 0–7 at rank
// 0, 8–15 at rank 1 and 16–23 at rank 2, so rank 1 faults on the 16 pages
// outside its own block; on fastgm (homeless) it faults on every page, and
// the region — more pages than a chunk of frames — lies in several
// allocations on both ranks.
const (
	spanPages    = 24
	slotsPerPage = tmk.PageSize / 8
)

func spanRun(t *testing.T, kind tmk.TransportKind, read func(tp *tmk.Proc, r *tmk.Region)) *tmk.Result {
	t.Helper()
	res, err := tmk.Run(tmk.DefaultConfig(3, kind), func(tp *tmk.Proc) {
		r := tp.AllocShared(spanPages * tmk.PageSize)
		if tp.Rank() == 0 {
			for i := 0; i < spanPages*slotsPerPage; i++ {
				tp.WriteF64(r, i, float64(i)+0.5)
			}
		}
		tp.Barrier(1)
		if tp.Rank() == 1 {
			read(tp, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpanFaultsEqualPageFaults: validating k invalid pages with one span
// read and with one read per page are the same faults — the same counts
// and bytes, the same contents — and differ only in how the fetches
// overlap: home-based, the span's Gets are all in flight at once;
// homeless, its pages' diffs come in a few replies per writer instead of
// one round trip per page. The pages are read last to first, so no read
// continues a sequential run and none reads ahead.
func TestSpanFaultsEqualPageFaults(t *testing.T) {
	t.Run("rdmagm", func(t *testing.T) { spanFaultsEqualPageFaults(t, tmk.TransportRDMAGM, spanPages*2/3) })
	t.Run("fastgm", func(t *testing.T) { spanFaultsEqualPageFaults(t, tmk.TransportFastGM, spanPages) })
}

func spanFaultsEqualPageFaults(t *testing.T, kind tmk.TransportKind, faults int64) {
	contents := func(tp *tmk.Proc, r *tmk.Region) []float64 {
		got := make([]float64, spanPages*slotsPerPage)
		tp.ReadF64Span(r, 0, got)
		for i, v := range got {
			if v != float64(i)+0.5 {
				t.Fatalf("slot %d = %v", i, v)
			}
		}
		return got
	}
	span := spanRun(t, kind, func(tp *tmk.Proc, r *tmk.Region) { contents(tp, r) })
	pages := spanRun(t, kind, func(tp *tmk.Proc, r *tmk.Region) {
		for pg := spanPages - 1; pg >= 0; pg-- {
			tp.ReadF64(r, pg*slotsPerPage)
		}
		faults := tp.Stats().ReadFaults
		contents(tp, r)
		if tp.Stats().ReadFaults != faults {
			t.Error("a page read one slot at a time faulted again under the span")
		}
	})
	if span.Stats.ReadFaults != faults {
		t.Errorf("span read: %d read faults, want %d", span.Stats.ReadFaults, faults)
	}
	s, p := span.Stats, pages.Stats
	if s.ReadFaults != p.ReadFaults || s.PageFetches != p.PageFetches || s.HomeFetches != p.HomeFetches || s.HomeFetchBytes != p.HomeFetchBytes {
		t.Errorf("span: %d faults, %d page fetches, %d home fetches, %d bytes; page by page: %d, %d, %d, %d",
			s.ReadFaults, s.PageFetches, s.HomeFetches, s.HomeFetchBytes, p.ReadFaults, p.PageFetches, p.HomeFetches, p.HomeFetchBytes)
	}
	if span.ExecTime >= pages.ExecTime {
		t.Errorf("the span's fetches took %v, one page at a time %v", span.ExecTime, pages.ExecTime)
	}
}

// TestNoticeMidGetIsOneFault lands a write notice between a posted Get and
// its completion. The page goes round again — a second Get — inside the
// same fault: counted once, charged FaultOverhead once, on the one-page
// call and on a span alike (the span used to count and charge it twice).
// Every page read is in rank 0's block, and no read starts where the one
// before it ended, so none reads ahead.
func TestNoticeMidGetIsOneFault(t *testing.T) {
	overhead := tmk.FaultOverhead
	spanRun(t, tmk.TransportRDMAGM, func(tp *tmk.Proc, r *tmk.Region) {
		// read faults in pages [first, last] and reports what that cost.
		read := func(first, last int) (faults, fetches int64, took sim.Time) {
			f0, h0, t0 := tp.Stats().ReadFaults, tp.Stats().HomeFetches, tp.Now()
			tp.ReadBytes(r, first*tmk.PageSize, (last-first+1)*tmk.PageSize)
			return tp.Stats().ReadFaults - f0, tp.Stats().HomeFetches - h0, tp.Now() - t0
		}
		_, _, page := read(0, 0) // home 0, undisturbed
		tp.NoticeMidGet(r.StartPage+3, 2)
		if faults, fetches, took := read(3, 3); faults != 1 || fetches != 2 || took != 2*page-overhead {
			t.Errorf("one page, notice mid-Get: %d faults, %d home fetches, %v; want 1, 2, %v",
				faults, fetches, took, 2*page-overhead)
		}
		_, _, span := read(5, 6) // undisturbed
		tp.NoticeMidGet(r.StartPage+2, 2)
		if faults, fetches, took := read(1, 2); faults != 2 || fetches != 3 || took != span+page-overhead {
			t.Errorf("two pages, notice mid-Get: %d faults, %d home fetches, %v; want 2, 3, %v",
				faults, fetches, took, span+page-overhead)
		}
	})
}

// spanRead runs app on n homeless ranks over both two-sided substrates.
// Rank 0 then reads the region's pages [first, last] in one span, and
// check judges the words and what the read cost: requests sent and diff
// ranges asked.
func spanRead(t *testing.T, n, pages, first, last int, write func(tp *tmk.Proc, r *tmk.Region),
	check func(t *testing.T, words []int32, requests, ranges int64)) {
	t.Helper()
	for _, kind := range bothTransports {
		t.Run(string(kind), func(t *testing.T) {
			_, err := tmk.Run(tmk.DefaultConfig(n, kind), func(tp *tmk.Proc) {
				r := tp.AllocShared(pages * tmk.PageSize)
				write(tp, r)
				tp.Barrier(9)
				if tp.Rank() != 0 {
					return
				}
				req, dr := sent(tp), tp.Stats().DiffRequestsSent
				b := tp.ReadBytes(r, first*tmk.PageSize, (last-first+1)*tmk.PageSize)
				words := make([]int32, len(b)/4)
				for i := range words {
					words[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
				}
				check(t, words, sent(tp)-req, tp.Stats().DiffRequestsSent-dr)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

const wordsPerPage = tmk.PageSize / 4

// TestSpanFaultAsksEachWriterOnce: three writers each write one word of
// every page of a six-page span. One read of the span is one wave — one
// request per writer, naming all six pages — and every word reads back.
func TestSpanFaultAsksEachWriterOnce(t *testing.T) {
	const pages, writers = 6, 3
	spanRead(t, writers+1, pages, 0, pages-1, func(tp *tmk.Proc, r *tmk.Region) {
		if w := tp.Rank(); w > 0 {
			for pg := 0; pg < pages; pg++ {
				tp.WriteI32(r, pg*wordsPerPage+w, int32(100*pg+w))
			}
		}
	}, func(t *testing.T, words []int32, requests, ranges int64) {
		if requests != writers || ranges != pages*writers {
			t.Errorf("%d requests naming %d page ranges; want %d naming %d", requests, ranges, writers, pages*writers)
		}
		for pg := 0; pg < pages; pg++ {
			for w := 0; w <= writers; w++ {
				want := int32(0)
				if w > 0 {
					want = int32(100*pg + w)
				}
				if got := words[pg*wordsPerPage+w]; got != want {
					t.Errorf("page %d word %d = %d, want %d", pg, w, got, want)
				}
			}
		}
	})
}

// cappedDense is how many dense pages one writer's reply must carry to be
// capped on every two-sided substrate at two and three ranks: their diffs
// (about 4.1 KB a page, seven pages to a 32 KB frame) fill more frames than
// the largest budget granted there, udpgm's two.
const cappedDense = 19

// TestCappedReplyDefersTwoWriterPage: rank 1 writes every word of pages
// 1–cappedDense and word 0 of the page after them; then rank 2, ordered
// after it by a barrier, writes word 0 of that last page. Rank 1's diffs of
// the span overfill its reply's frame budget, so it answers the pages its
// budget's frames hold and leaves the last page out, while rank 2 answers
// it. Applying
// rank 2's diff alone, and rank 1's in a later wave, would let the older
// write win: the page must wait whole.
func TestCappedReplyDefersTwoWriterPage(t *testing.T) {
	const last = cappedDense + 1
	spanRead(t, 3, last+1, 1, last, func(tp *tmk.Proc, r *tmk.Region) {
		if tp.Rank() == 1 {
			for i := wordsPerPage; i < last*wordsPerPage; i++ {
				tp.WriteI32(r, i, int32(i))
			}
			tp.WriteI32(r, last*wordsPerPage, 1)
		}
		tp.Barrier(1)
		if tp.Rank() == 2 {
			tp.WriteI32(r, last*wordsPerPage, 2)
		}
	}, func(t *testing.T, words []int32, requests, ranges int64) {
		if requests <= 2 {
			t.Errorf("%d requests: rank 1's reply was not capped, the test proves nothing", requests)
		}
		for i := 0; i < cappedDense*wordsPerPage; i++ {
			if words[i] != int32(i+wordsPerPage) {
				t.Fatalf("page %d word %d = %d", 1+i/wordsPerPage, i%wordsPerPage, words[i])
			}
		}
		if got := words[cappedDense*wordsPerPage]; got != 2 {
			t.Errorf("page %d word 0 = %d, want rank 2's 2 (its write happens after rank 1's)", last, got)
		}
	})
}

// TestSpanPastOneRequestFrameIsSplit: one writer's diffs of 2,400 pages,
// one word each — more ranges than one 32 KB request frame names, and more
// diffs than one reply frame carries. The span still reads in one call:
// each wave asks for what one request frame holds, and its reply continues
// across the two frames the budget grants, so no page is asked for twice.
func TestSpanPastOneRequestFrameIsSplit(t *testing.T) {
	const pages = 2400
	spanRead(t, 2, pages, 0, pages-1, func(tp *tmk.Proc, r *tmk.Region) {
		if tp.Rank() == 1 {
			for pg := 0; pg < pages; pg++ {
				tp.WriteI32(r, pg*wordsPerPage+pg%wordsPerPage, int32(pg+1))
			}
		}
	}, func(t *testing.T, words []int32, requests, ranges int64) {
		if requests != 2 || ranges != pages {
			t.Errorf("%d requests naming %d ranges for %d pages; want 2 waves, each page asked once", requests, ranges, pages)
		}
		for pg := 0; pg < pages; pg++ {
			if got := words[pg*wordsPerPage+pg%wordsPerPage]; got != int32(pg+1) {
				t.Fatalf("page %d = %d, want %d", pg, got, pg+1)
			}
		}
	})
}

// TestDenseGatherTakesOneRequestPerBudget: rank 1 of four writes every word
// of 16 pages — a 3D-FFT transpose block at 8 ranks, about 65.7 KB of diffs,
// three reply frames — and rank 0 reads them in one span. fastgm grants a
// lone call every reply buffer of its sync port, four, so one request
// brings all 16 pages in three frames. udpgm grants two, what the reply
// socket's buffer holds: the budget cannot hold all 16 pages, so the first
// request is answered with the pages its two frames hold, fourteen, and the
// second brings the other two — 18 ranges asked. Answering one frame's
// prefix (7 pages, then 9) would ask 25.
func TestDenseGatherTakesOneRequestPerBudget(t *testing.T) {
	const pages = 16
	want := map[tmk.TransportKind][2]int64{tmk.TransportFastGM: {1, pages}, tmk.TransportUDPGM: {2, pages + 2}}
	for _, kind := range bothTransports {
		_, err := tmk.Run(tmk.DefaultConfig(4, kind), func(tp *tmk.Proc) {
			r := tp.AllocShared(pages * tmk.PageSize)
			if tp.Rank() == 1 {
				for i := 0; i < pages*wordsPerPage; i++ {
					tp.WriteI32(r, i, int32(i+1))
				}
			}
			tp.Barrier(1)
			if tp.Rank() != 0 {
				return
			}
			req, dr := sent(tp), tp.Stats().DiffRequestsSent
			b := tp.ReadBytes(r, 0, pages*tmk.PageSize)
			if n, ranges := sent(tp)-req, tp.Stats().DiffRequestsSent-dr; n != want[kind][0] || ranges != want[kind][1] {
				t.Errorf("%s: %d requests naming %d ranges; want %d naming %d", kind, n, ranges, want[kind][0], want[kind][1])
			}
			for i := 0; i < pages*wordsPerPage; i++ {
				if w := int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24); w != int32(i+1) {
					t.Fatalf("%s: page %d word %d = %d", kind, i/wordsPerPage, i%wordsPerPage, w)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffReplyFillsItsBudget holds the writer's reply to a diff request
// to the rule written out the slow way (refDiffReply): of the pages asked,
// in order, the longest prefix whose diffs, cut into frames only between
// diffs, take at most the budget's frames — and at least the first page —
// sent in exactly those frames, numbered when there is more than one. Rank
// 1 of two writes random word counts of random page counts over one to
// three intervals, then serves random page windows and timestamp ranges of
// its own diffs under random frame sizes and every budget from 1 to 16.
func TestDiffReplyFillsItsBudget(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pages := 1 + rng.Intn(48)
		words := make([][]int, 1+rng.Intn(3)) // per interval and page: words rank 1 writes
		for i := range words {
			words[i] = make([]int, pages)
			for pg := range words[i] {
				if rng.Intn(4) > 0 {
					words[i][pg] = 1 + rng.Intn(wordsPerPage)
				}
			}
		}
		_, err := tmk.Run(tmk.DefaultConfig(2, tmk.TransportFastGM), func(tp *tmk.Proc) {
			r := tp.AllocShared(pages * tmk.PageSize)
			for i, counts := range words {
				if tp.Rank() == 1 {
					for pg, k := range counts {
						for w := 0; w < k; w++ {
							tp.WriteI32(r, pg*wordsPerPage+w, int32(i+1))
						}
					}
				}
				tp.Barrier(int32(i + 1))
			}
			if tp.Rank() != 1 {
				return
			}
			own := make([][]msg.Diff, pages)
			for pg := range own {
				own[pg] = tp.OwnDiffs(r.StartPage + int32(pg))
			}
			for trial := 0; trial < 40; trial++ {
				var ask []msg.DiffRange
				var asked [][]msg.Diff // the diffs each range of ask names
				first := rng.Intn(pages)
				end := first + 1 + rng.Intn(pages-first)
				for pg := first; pg < end; pg++ {
					if len(own[pg]) == 0 {
						continue
					}
					a := rng.Intn(len(own[pg]))
					b := a + rng.Intn(len(own[pg])-a)
					from := int32(0)
					if a > 0 {
						from = own[pg][a-1].TS
					}
					ask = append(ask, msg.DiffRange{Page: own[pg][a].Page, Proc: 1, FromTS: from, ToTS: own[pg][b].TS})
					asked = append(asked, own[pg][a:b+1])
				}
				if len(ask) == 0 {
					continue
				}
				limit := msg.DiffReplySize(1, 0) + rng.Intn(tp.Transport().MaxData()-msg.DiffReplySize(1, 0)+1)
				for budget := 1; budget <= 16; budget++ {
					req := msg.Message{Kind: msg.KDiffReq, DiffReqs: ask}
					req.SetBudget(budget)
					got, want := tp.ServeDiffReq(&req, limit), refDiffReply(asked, budget, limit)
					if len(got) != len(want) {
						t.Fatalf("seed %d trial %d budget %d limit %d: %d frames, want %d", seed, trial, budget, limit, len(got), len(want))
					}
					for f := range want {
						if i, n := got[f].Frame(); i != f || n != len(want) {
							t.Fatalf("seed %d trial %d budget %d: frame %d numbered %d of %d, want of %d", seed, trial, budget, f, i, n, len(want))
						}
						if !slices.EqualFunc(got[f].Diffs, want[f], func(a, b msg.Diff) bool {
							return a.Page == b.Page && a.Proc == b.Proc && a.TS == b.TS && bytes.Equal(a.Data, b.Data)
						}) {
							t.Fatalf("seed %d trial %d budget %d limit %d: frame %d carries %d diffs, want %d", seed, trial, budget, limit, f, len(got[f].Diffs), len(want[f]))
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// refDiffReply is the reply rule by brute force: every prefix of the pages
// asked (asked[i] holds page i's diffs) is cut into frames, a diff joining
// its frame when the frame still encodes to at most limit bytes with it;
// the longest prefix that takes at most budget frames is the reply, or the
// first page alone if none does.
func refDiffReply(asked [][]msg.Diff, budget, limit int) [][]msg.Diff {
	reply := cutFrames(asked[0], limit)
	for k := 2; k <= len(asked); k++ {
		if frames := cutFrames(slices.Concat(asked[:k]...), limit); len(frames) <= budget {
			reply = frames
		}
	}
	return reply
}

func cutFrames(diffs []msg.Diff, limit int) [][]msg.Diff {
	frames := [][]msg.Diff{nil}
	for _, d := range diffs {
		last := frames[len(frames)-1]
		grown := msg.Message{Kind: msg.KDiffReply, Diffs: append(slices.Clip(last), d)}
		if len(last) > 0 && grown.EncodedSize() > limit {
			frames = append(frames, []msg.Diff{d})
		} else {
			frames[len(frames)-1] = grown.Diffs
		}
	}
	return frames
}
