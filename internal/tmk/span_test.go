package tmk_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// Read faults over a span, three ranks: rank 0 writes every slot of a
// region, rank 1 reads it back after a barrier, rank 2 only crosses the
// barriers. On rdmagm (home-based) static placement homes page pg at rank
// pg%3, so rank 1 faults on the two pages in three it is not home of; on
// fastgm (homeless) it faults on every page, and the region — more pages than
// a chunk of frames — lies in several allocations on both ranks.
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
// and bytes, the same contents — and differ only in how the Gets overlap
// (home-based; homeless, a span faults its pages one after the other, so
// not even in that).
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
		for pg := 0; pg < spanPages; pg++ {
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
	if kind == tmk.TransportRDMAGM && span.ExecTime >= pages.ExecTime {
		t.Errorf("overlapped Gets took %v, one at a time %v", span.ExecTime, pages.ExecTime)
	}
}

// TestNoticeMidGetIsOneFault lands a write notice between a posted Get and
// its completion. The page goes round again — a second Get — inside the
// same fault: counted once, charged FaultOverhead once, on the one-page
// call and on a span alike (the span used to count and charge it twice).
func TestNoticeMidGetIsOneFault(t *testing.T) {
	overhead := tmk.DefaultCPUParams().FaultOverhead
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
		_, _, span := read(5, 6) // homes 2 and 0, undisturbed
		tp.NoticeMidGet(r.StartPage+9, 2)
		if faults, fetches, took := read(8, 9); faults != 2 || fetches != 3 || took != span+page-overhead {
			t.Errorf("two pages, notice mid-Get: %d faults, %d home fetches, %v; want 2, 3, %v",
				faults, fetches, took, span+page-overhead)
		}
	})
}
