package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

// Home-based placement (DESIGN.md §12.3): page pg of region r is homed at
// rank ⌊(pg − r.StartPage)·n / r.NPages⌋, its block of the region.

// TestHomeOfIsTheBlockOnEveryRank: every rank places every page of every
// region at the same home, the page's block of its region — the pages cut
// into n equal runs in rank order — with no message, at 4, 8 and 16 ranks,
// for regions of fewer pages than ranks too (some ranks then home nothing).
// A region's blocks are contiguous and ascending, and with at least n pages
// every rank homes at least one.
func TestHomeOfIsTheBlockOnEveryRank(t *testing.T) {
	sizes := []int32{1, 3, 5, 16, 37} // pages per region
	for _, n := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			type placed struct{ start, pages int32 }
			regions := make([]placed, len(sizes))
			homes := make([][]map[int32]int, n) // rank → region → page → home
			_, err := tmk.Run(tmk.DefaultConfig(n, tmk.TransportRDMAGM), func(tp *tmk.Proc) {
				homes[tp.Rank()] = make([]map[int32]int, len(sizes))
				for i, np := range sizes {
					r := tp.AllocShared(int(np) * tmk.PageSize)
					regions[i] = placed{r.StartPage, r.NPages}
					homes[tp.Rank()][i] = map[int32]int{}
					for pg := r.StartPage; pg < r.StartPage+r.NPages; pg++ {
						homes[tp.Rank()][i][pg] = tp.HomeOf(pg)
					}
				}
				tp.Barrier(1)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range regions {
				owners := map[int]bool{}
				prev := 0
				for k := int32(0); k < r.pages; k++ {
					pg := r.start + k
					want := int(k) * n / int(r.pages)
					for rank := 0; rank < n; rank++ {
						if got := homes[rank][i][pg]; got != want {
							t.Errorf("%d-page region: rank %d homes page %d (offset %d) at %d, want %d", r.pages, rank, pg, k, got, want)
						}
					}
					if want < prev || want >= n {
						t.Errorf("%d-page region: offset %d homed at %d after %d", r.pages, k, want, prev)
					}
					prev = want
					owners[want] = true
				}
				if r.pages >= int32(n) && len(owners) != n {
					t.Errorf("%d-page region over %d ranks: only %d ranks home a page", r.pages, n, len(owners))
				}
			}
		})
	}
}

// TestBandWritesAreTwinFree: a rank that writes a page of its own band —
// its block of the region, so it is the page's home — twins nothing, diffs
// nothing and flushes nothing from the first epoch on, while every other
// rank still sees each new value (notice, invalidation and home fetch are
// unchanged). Rank 1 writes page 3 of an eight-page region over four ranks:
// its block is pages 2 and 3 (round-robin placement would home page 3 at
// rank 3).
func TestBandWritesAreTwinFree(t *testing.T) {
	const n, rounds = 4, 6
	res, err := tmk.Run(tmk.DefaultConfig(n, tmk.TransportRDMAGM), func(tp *tmk.Proc) {
		r := tp.AllocShared(2 * n * tmk.PageSize)
		const word = 3*wordsPerPage + 5 // a word of page 3
		if h := tp.HomeOf(r.StartPage + 3); h != 1 {
			t.Fatalf("page 3 of a %d-page region over %d ranks is homed at %d", 2*n, n, h)
		}
		tp.Barrier(1)
		for e := 0; e < rounds; e++ {
			if tp.Rank() == 1 {
				tp.WriteI32(r, word, int32(e+1))
			}
			tp.Barrier(int32(2 + 2*e))
			if v := tp.ReadI32(r, word); v != int32(e+1) {
				t.Errorf("round %d: rank %d reads %d", e, tp.Rank(), v)
			}
			tp.Barrier(int32(3 + 2*e)) // reads done before the next write
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Stats // only rank 1 writes, so the cluster's writer-side counters are its own
	if w.TwinsCreated != 0 || w.DiffsCreated != 0 || w.HomeFlushes != 0 {
		t.Errorf("band writes made %d twins, %d diffs and %d flushes, want none", w.TwinsCreated, w.DiffsCreated, w.HomeFlushes)
	}
	if w.WriteFaults != rounds || w.IntervalsCreated != rounds {
		t.Errorf("%d write faults and %d intervals for %d rounds: the write path must still fault and publish", w.WriteFaults, w.IntervalsCreated, rounds)
	}
	if want := int64((n - 1) * rounds); w.HomeFetches != want {
		t.Errorf("%d home fetches, want %d: each of the %d other ranks refetches every round", w.HomeFetches, want, n-1)
	}
}

// TestFFT3DBandsAreHomedAtTheirWriters: at Z = 16 on four ranks every
// z-plane of 3D-FFT's arrays is one page and every rank's planes, and its
// blocks of the exchange region, are exactly its block of each region. So
// on rdmagm every page a rank writes is homed at that rank: the whole run
// takes no twin and flushes nothing, and still verifies.
func TestFFT3DBandsAreHomedAtTheirWriters(t *testing.T) {
	f := &apps.FFT3D{Z: 16, Iters: 2, CostPerButterfly: 45}
	var verr error
	res, err := tmk.Run(tmk.DefaultConfig(4, tmk.TransportRDMAGM), func(tp *tmk.Proc) {
		f.Run(tp)
		tp.Barrier(2_000_000)
		if tp.Rank() == 0 {
			verr = f.Verify(tp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr != nil {
		t.Fatal(verr)
	}
	if s := res.Stats; s.HomeFlushes != 0 || s.TwinsCreated != 0 || s.WriteFaults == 0 || s.HomeFetches == 0 {
		t.Errorf("%d home flushes, %d twins over %d write faults and %d home fetches; want no flush and no twin, and writes and fetches",
			s.HomeFlushes, s.TwinsCreated, s.WriteFaults, s.HomeFetches)
	}
}
