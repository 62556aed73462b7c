package tmk_test

import (
	"testing"

	"repro/internal/tmk"
)

// Sequential readahead (DESIGN.md §4.3): a read fault whose first invalid
// page is the one after the previous fault's last page continues a run,
// and the k-th such fault in a row also validates up to k pages past its
// span, in the same request or Get wave.

const aheadPages = 64

// aheadRead runs n ranks of kind on one 64-page region: every rank calls
// write, and after a barrier rank 0 — the region's owner — reads one word
// of each page in order, each read its own call. It returns what the reads
// cost rank 0 (requests sent, read faults, pages prefetched) and fails the
// test on a word that does not read back as want(pg).
func aheadRead(t *testing.T, n int, kind tmk.TransportKind, order []int,
	write func(tp *tmk.Proc, r *tmk.Region), want func(pg int) int32) (requests, faults, prefetched int64) {
	t.Helper()
	_, err := tmk.Run(tmk.DefaultConfig(n, kind), func(tp *tmk.Proc) {
		r := tp.AllocShared(aheadPages * tmk.PageSize)
		write(tp, r)
		tp.Barrier(1)
		if tp.Rank() != 0 {
			return
		}
		req, st := sent(tp), *tp.Stats()
		for _, pg := range order {
			if got := tp.ReadI32(r, pg*wordsPerPage); got != want(pg) {
				t.Errorf("page %d reads %d, want %d", pg, got, want(pg))
			}
		}
		requests, faults, prefetched = sent(tp)-req, tp.Stats().ReadFaults-st.ReadFaults, tp.Stats().Prefetched-st.Prefetched
	})
	if err != nil {
		t.Fatal(err)
	}
	return requests, faults, prefetched
}

func ascending() []int {
	order := make([]int, aheadPages)
	for i := range order {
		order[i] = i
	}
	return order
}

func descending() []int {
	order := make([]int, aheadPages)
	for i := range order {
		order[i] = aheadPages - 1 - i
	}
	return order
}

// oneWord has rank 1 write word 0 of every page, the value pg+1.
func oneWord(tp *tmk.Proc, r *tmk.Region) {
	if tp.Rank() == 1 {
		for pg := 0; pg < aheadPages; pg++ {
			tp.WriteI32(r, pg*wordsPerPage, int32(pg+1))
		}
	}
}

func pagePlusOne(pg int) int32 { return int32(pg + 1) }

// TestSequentialReadahead: rank 1 writes one word of each of 64 pages and
// rank 0 reads them one page at a time. Ascending, the k-th fault of the
// run asks for k pages more, so 11 requests cover 1 + 2 + … + 11 ≥ 64
// pages; descending, every other page, and ascending over whole-page
// diffs (half a page of diff bytes bounds a window), every page read is
// its own request. A readahead
// page a capped reply leaves out waits for its own fault. Home-based,
// ascending reads take fewer Get waves than they validate pages, and a
// readahead page a notice re-invalidates mid-Get waits for its own fault.
func TestSequentialReadahead(t *testing.T) {
	for _, kind := range bothTransports {
		t.Run(string(kind)+"/ascending", func(t *testing.T) {
			requests, faults, prefetched := aheadRead(t, 2, kind, ascending(), oneWord, pagePlusOne)
			if requests > 11 || faults+prefetched != aheadPages {
				t.Errorf("%d requests, %d faults and %d pages prefetched for %d pages; want ≤ 11 requests covering every page",
					requests, faults, prefetched, aheadPages)
			}
		})
		t.Run(string(kind)+"/descending", func(t *testing.T) {
			requests, faults, prefetched := aheadRead(t, 2, kind, descending(), oneWord, pagePlusOne)
			if requests != aheadPages || faults != aheadPages || prefetched != 0 {
				t.Errorf("%d requests, %d faults, %d prefetched; want one demand fault and request per page",
					requests, faults, prefetched)
			}
		})
		t.Run(string(kind)+"/strided", func(t *testing.T) {
			var even []int
			for pg := 0; pg < aheadPages; pg += 2 {
				even = append(even, pg)
			}
			requests, faults, prefetched := aheadRead(t, 2, kind, even, oneWord, pagePlusOne)
			if requests != aheadPages/2 || faults != aheadPages/2 || prefetched != 0 {
				t.Errorf("%d requests, %d faults, %d prefetched; want one demand fault and request per page read",
					requests, faults, prefetched)
			}
		})
		t.Run(string(kind)+"/dense", func(t *testing.T) {
			dense := func(tp *tmk.Proc, r *tmk.Region) {
				if tp.Rank() == 1 {
					page := make([]byte, tmk.PageSize)
					for pg := 0; pg < aheadPages; pg++ {
						for i := range page {
							page[i] = byte(pg + 1)
						}
						tp.WriteAt(r, pg*tmk.PageSize, page)
					}
				}
			}
			requests, _, prefetched := aheadRead(t, 2, kind, ascending(), dense, func(pg int) int32 {
				return int32(uint32(pg+1) * 0x01010101)
			})
			if requests != aheadPages || prefetched != 0 {
				t.Errorf("%d requests, %d prefetched; want one request per dense page", requests, prefetched)
			}
		})
		t.Run(string(kind)+"/capped", func(t *testing.T) { cappedReadahead(t, kind) })
	}
	t.Run("rdmagm/notice-mid-get", noticeMidReadahead)
	t.Run("rdmagm/ascending", func(t *testing.T) {
		// Four ranks: rank 0 is the home of its block, the first 16 pages,
		// and reads the other 48 from their homes.
		const remote = aheadPages * 3 / 4
		_, faults, prefetched := aheadRead(t, 4, tmk.TransportRDMAGM, ascending(), oneWord, pagePlusOne)
		if faults >= remote || faults+prefetched != remote {
			t.Errorf("%d Get waves validated %d pages (%d prefetched); want fewer waves than the %d pages homed elsewhere",
				faults, faults+prefetched, prefetched, remote)
		}
	})
}

// cappedReadahead: rank 1 writes one word of page 0, every word of pages
// 1–cappedDense and one word of the page after them. Rank 0 reads page 0,
// then pages 1–cappedDense in one span: that fault continues the run, so
// the last page rides along, after the span's pages — whose diffs overfill
// the frames the reply's budget grants, so the reply is capped at the
// pages those frames hold. The capped reply leaves the last page out, and the
// span's next wave does not ask for it again: it stays invalid, and its
// own fault fetches it later.
func cappedReadahead(t *testing.T, kind tmk.TransportKind) {
	last := cappedDense + 1
	_, err := tmk.Run(tmk.DefaultConfig(2, kind), func(tp *tmk.Proc) {
		r := tp.AllocShared((last + 1) * tmk.PageSize)
		if tp.Rank() == 1 {
			tp.WriteI32(r, 0, 1)
			for i := wordsPerPage; i < last*wordsPerPage; i++ {
				tp.WriteI32(r, i, int32(i))
			}
			tp.WriteI32(r, last*wordsPerPage, 10)
		}
		tp.Barrier(1)
		if tp.Rank() != 0 {
			return
		}
		tp.ReadI32(r, 0)
		req, st := sent(tp), *tp.Stats()
		span := tp.ReadBytes(r, tmk.PageSize, cappedDense*tmk.PageSize)
		for i := 0; i < cappedDense*wordsPerPage; i++ {
			w := int32(uint32(span[4*i]) | uint32(span[4*i+1])<<8 | uint32(span[4*i+2])<<16 | uint32(span[4*i+3])<<24)
			if w != int32(i+wordsPerPage) {
				t.Fatalf("page %d word %d = %d", 1+i/wordsPerPage, i%wordsPerPage, w)
			}
		}
		if n := sent(tp) - req; n < 2 {
			t.Errorf("%d requests for the span: its reply was not capped, the test proves nothing", n)
		}
		if tp.Valid(r, last) || tp.Stats().Prefetched != st.Prefetched {
			t.Errorf("page %d valid %v, %d pages prefetched; want it left invalid by the capped reply",
				last, tp.Valid(r, last), tp.Stats().Prefetched-st.Prefetched)
		}
		faults, req := tp.Stats().ReadFaults, sent(tp)
		if got := tp.ReadI32(r, last*wordsPerPage); got != 10 {
			t.Errorf("page %d reads %d, want 10", last, got)
		}
		if f, n := tp.Stats().ReadFaults-faults, sent(tp)-req; f != 1 || n != 1 {
			t.Errorf("page %d took %d faults and %d requests; want its own fault and one request", last, f, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// noticeMidReadahead: on four home-based ranks rank 1 writes one word of
// every page, and rank 0 reads page b+1, then page b+2, where b starts rank
// 3's block, so every page read is homed there. The second fault continues
// the run, so page b+3 rides along in its Get wave — and a write notice for
// page b+3 lands while the Gets are in flight. A demand page would go round
// again; the readahead page stays invalid, and its own fault fetches it.
func noticeMidReadahead(t *testing.T) {
	_, err := tmk.Run(tmk.DefaultConfig(4, tmk.TransportRDMAGM), func(tp *tmk.Proc) {
		r := tp.AllocShared(aheadPages * tmk.PageSize)
		oneWord(tp, r)
		tp.Barrier(1)
		if tp.Rank() != 0 {
			return
		}
		const b = aheadPages * 3 / 4
		for pg := b + 1; pg <= b+3; pg++ {
			if h := tp.HomeOf(r.StartPage + int32(pg)); h != 3 {
				t.Fatalf("page %d is homed at %d, want 3", pg, h)
			}
		}
		tp.ReadI32(r, (b+1)*wordsPerPage)
		st := *tp.Stats()
		tp.NoticeMidGet(r.StartPage+b+3, 2) // rank 2 closes no interval after barrier 1
		if got := tp.ReadI32(r, (b+2)*wordsPerPage); got != b+3 {
			t.Errorf("page %d reads %d, want %d", b+2, got, b+3)
		}
		if f, g := tp.Stats().ReadFaults-st.ReadFaults, tp.Stats().HomeFetches-st.HomeFetches; f != 1 || g != 2 {
			t.Errorf("page %d: %d faults, %d home fetches; want one fault whose wave also fetched page %d", b+2, f, g, b+3)
		}
		if tp.Valid(r, b+3) || tp.Stats().Prefetched != st.Prefetched {
			t.Errorf("page %d valid %v, %d pages prefetched; want it left invalid by the notice", b+3, tp.Valid(r, b+3),
				tp.Stats().Prefetched-st.Prefetched)
		}
		faults := tp.Stats().ReadFaults
		if got := tp.ReadI32(r, (b+3)*wordsPerPage); got != b+4 {
			t.Errorf("page %d reads %d, want %d", b+3, got, b+4)
		}
		if f := tp.Stats().ReadFaults - faults; f != 1 {
			t.Errorf("page %d took %d faults; want its own", b+3, f)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
