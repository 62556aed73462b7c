package tmk_test

import (
	"testing"

	"repro/internal/tmk"
)

// A homeless cold read fault — the first touch of a page this rank holds
// no copy of — starts from zeros and fetches only the diffs its write
// notices name: every region starts zeroed, and every store since is a
// diff. No homeless fault fetches a full page.

const coldSlots = tmk.PageSize / 8

// sent is the number of requests tp's transport has sent so far.
func sent(tp *tmk.Proc) int64 { return tp.Transport().Stats().RequestsSent }

// TestColdReadOfUnwrittenPageSendsNothing: a page nobody wrote reads as
// zeros on a rank without a copy at the cost of the fault alone — no
// message, no frame.
func TestColdReadOfUnwrittenPageSendsNothing(t *testing.T) {
	for _, kind := range bothTransports {
		t.Run(string(kind), func(t *testing.T) {
			_, err := tmk.Run(tmk.DefaultConfig(2, kind), func(tp *tmk.Proc) {
				r := tp.AllocShared(2 * tmk.PageSize)
				tp.Barrier(1)
				if tp.Rank() == 1 {
					before, st := sent(tp), *tp.Stats()
					if v := tp.ReadF64(r, coldSlots+7); v != 0 {
						t.Errorf("unwritten page reads %v", v)
					}
					after := tp.Stats()
					if n := sent(tp) - before; n != 0 {
						t.Errorf("cold read of an unwritten page sent %d requests", n)
					}
					if after.ReadFaults != st.ReadFaults+1 || after.ZeroFills != st.ZeroFills+1 || after.PageFetches != st.PageFetches {
						t.Errorf("faults %d→%d, zero fills %d→%d, page fetches %d→%d; want one zero-filled fault",
							st.ReadFaults, after.ReadFaults, st.ZeroFills, after.ZeroFills, st.PageFetches, after.PageFetches)
					}
					if tp.HasFrame(r, 1) || !tp.HasCopy(r, 1) {
						t.Errorf("zero-filled page: frame %v, copy %v; want a frame-less copy", tp.HasFrame(r, 1), tp.HasCopy(r, 1))
					}
				}
				tp.Barrier(2)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestColdReadFetchesOneDiffRequestPerWriter: three ranks write disjoint
// words of one page — one of them in two intervals — and a fourth, which
// never held a copy, reads it. The fault is three diff requests, one per
// writer whatever its interval count, and no page fetch, and every word
// reads as written.
func TestColdReadFetchesOneDiffRequestPerWriter(t *testing.T) {
	const writers = 3
	want := func(w, i int) float64 { return float64(100*w + i + 1) }
	for _, kind := range bothTransports {
		t.Run(string(kind), func(t *testing.T) {
			_, err := tmk.Run(tmk.DefaultConfig(writers+2, kind), func(tp *tmk.Proc) {
				r := tp.AllocShared(tmk.PageSize)
				w := tp.Rank() // ranks 1..writers write slots 8w..8w+7
				if w >= 1 && w <= writers {
					for i := 0; i < 4; i++ {
						tp.WriteF64(r, 8*w+i, want(w, i))
					}
				}
				tp.Barrier(1)
				if w == 1 {
					for i := 4; i < 8; i++ {
						tp.WriteF64(r, 8*w+i, want(w, i))
					}
				}
				tp.Barrier(2)
				if w != writers+1 {
					return
				}
				before, st := sent(tp), *tp.Stats()
				got := make([]float64, coldSlots)
				tp.ReadF64Span(r, 0, got)
				after := tp.Stats()
				if n := after.DiffRequestsSent - st.DiffRequestsSent; n != writers {
					t.Errorf("%d diff requests for %d writers", n, writers)
				}
				if n := sent(tp) - before; n != writers {
					t.Errorf("%d requests sent, want %d", n, writers)
				}
				if after.PageFetches != st.PageFetches || after.ZeroFills != st.ZeroFills+1 {
					t.Errorf("page fetches %d→%d, zero fills %d→%d; want a zero fill and no fetch",
						st.PageFetches, after.PageFetches, st.ZeroFills, after.ZeroFills)
				}
				for s, v := range got {
					w, i := s/8, s%8
					exp := 0.0
					if w >= 1 && w <= writers && (i < 4 || w == 1) {
						exp = want(w, i)
					}
					if v != exp {
						t.Errorf("slot %d reads %v, want %v", s, v, exp)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
