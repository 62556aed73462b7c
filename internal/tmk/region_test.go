package tmk_test

import (
	"testing"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func run1(t *testing.T, body func(tp *tmk.Proc)) {
	t.Helper()
	if _, err := tmk.Run(tmk.DefaultConfig(1, tmk.TransportFastGM), body); err != nil {
		t.Fatal(err)
	}
}

func TestRegionRangeChecks(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		r := tp.AllocShared(100)
		mustPanic(t, "read past end", func() { tp.ReadBytes(r, tmk.PageSize-4, 8) })
		mustPanic(t, "negative offset", func() { tp.ReadBytes(r, -1, 4) })
		mustPanic(t, "negative offset write", func() { tp.WriteAt(r, -1, make([]byte, 4)) })
		// Within the page-rounded region but past the requested byte
		// count is allowed (page granularity, like real DSM).
		_ = tp.ReadBytes(r, 100, 4)
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestAllocRules(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		mustPanic(t, "zero alloc", func() { tp.Alloc(0) })
		r1 := tp.Alloc(1)
		r2 := tp.Alloc(tmk.PageSize + 1)
		if r1.NPages != 1 || r2.NPages != 2 {
			t.Errorf("pages: %d, %d", r1.NPages, r2.NPages)
		}
		if r2.StartPage != r1.StartPage+1 {
			t.Errorf("regions overlap: %d vs %d", r1.StartPage, r2.StartPage)
		}
		if tp.RegionByID(r1.ID) != r1 || tp.RegionByID(999) != nil {
			t.Error("RegionByID lookup wrong")
		}
	})
}

func TestTypedAccessors(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		r := tp.AllocShared(256)
		tp.WriteI32(r, 3, -123456)
		if got := tp.ReadI32(r, 3); got != -123456 {
			t.Errorf("ReadI32 = %d", got)
		}
		tp.WriteF64(r, 5, 3.25)
		if got := tp.ReadF64(r, 5); got != 3.25 {
			t.Errorf("ReadF64 = %v", got)
		}
		vals := []float64{1.5, -2.5, 3.5}
		tp.WriteF64Span(r, 10, vals)
		got := make([]float64, 3)
		tp.ReadF64Span(r, 10, got)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("span[%d] = %v", i, got[i])
			}
		}
	})
}

func TestSpanAcrossPages(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		r := tp.AllocShared(3 * tmk.PageSize)
		n := 3 * tmk.PageSize / 8
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		tp.WriteF64Span(r, 0, vals)
		got := make([]float64, n)
		tp.ReadF64Span(r, 0, got)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("cross-page span slot %d = %v", i, got[i])
			}
		}
	})
}

// Spans against the one-slot accessors: at every slot offset of two pages
// and at lengths from none to two pages, those ending at, one short of and
// one past a page boundary among them, a span written reads back slot by
// slot, one read back matches what was written slot by slot, and neither
// touches a slot outside it.
func TestSpanMatchesSlotAccessors(t *testing.T) {
	const slots = tmk.PageSize / 8
	run1(t, func(tp *tmk.Proc) {
		r := tp.AllocShared(3 * tmk.PageSize)
		model := make([]float64, 3*slots) // every slot's value, as written
		buf := make([]float64, 2*slots+1)
		next := 0.0
		fresh := func(vals []float64) []float64 {
			for i := range vals {
				next++
				vals[i] = next
			}
			return vals
		}
		same := func(what string, off, n int) {
			for _, i := range []int{off - 1, off + n} {
				if i >= 0 && i < len(model) {
					if got := tp.ReadF64(r, i); got != model[i] {
						t.Fatalf("%s [%d,+%d): slot %d outside it = %v, want %v", what, off, n, i, got, model[i])
					}
				}
			}
		}
		for off := 0; off < 2*slots; off++ {
			edge := slots - off%slots
			for _, n := range []int{0, 1, 2, edge - 1, edge, edge + 1, slots, 2 * slots} {
				if n < 0 || off+n > len(model) {
					continue
				}
				vals := fresh(buf[:n])
				tp.WriteF64Span(r, off, vals)
				copy(model[off:], vals)
				for i, v := range vals {
					if got := tp.ReadF64(r, off+i); got != v {
						t.Fatalf("WriteF64Span [%d,+%d): slot %d reads %v, want %v", off, n, off+i, got, v)
					}
				}
				same("WriteF64Span", off, n)

				for i, v := range fresh(buf[:n]) {
					tp.WriteF64(r, off+i, v)
					model[off+i] = v
				}
				buf[n] = -1
				tp.ReadF64Span(r, off, buf[:n])
				for i := range n {
					if buf[i] != model[off+i] {
						t.Fatalf("ReadF64Span [%d,+%d): slot %d = %v, want %v", off, n, off+i, buf[i], model[off+i])
					}
				}
				if buf[n] != -1 {
					t.Fatalf("ReadF64Span [%d,+%d) wrote past its destination", off, n)
				}
				same("WriteF64", off, n)
			}
		}
	})
}

// BenchmarkF64Span times the span loops alone: the pages are valid, and
// writable, before the timer starts, so no iteration faults, and the
// buffers are reused. "page" is one whole page; "row" is a 640-slot row
// of a 640-column grid (jacobi_fastgm_16's), which straddles two pages.
func BenchmarkF64Span(b *testing.B) {
	const n = 640
	for _, c := range []struct {
		name     string
		idx, len int
	}{{"page", 0, tmk.PageSize / 8}, {"row", n, n}} {
		for _, write := range []bool{false, true} {
			name := "read/" + c.name
			if write {
				name = "write/" + c.name
			}
			b.Run(name, func(b *testing.B) {
				vals := make([]float64, c.len)
				for i := range vals {
					vals[i] = float64(i) / 3
				}
				cfg := tmk.DefaultConfig(1, tmk.TransportFastGM)
				if _, err := tmk.Run(cfg, func(tp *tmk.Proc) {
					r := tp.AllocShared(3 * n * 8)
					tp.WriteF64Span(r, c.idx, vals) // faults the pages valid and writable
					b.SetBytes(int64(8 * c.len))
					b.ReportAllocs()
					b.ResetTimer()
					for range b.N {
						if write {
							tp.WriteF64Span(r, c.idx, vals)
						} else {
							tp.ReadF64Span(r, c.idx, vals)
						}
					}
					b.StopTimer()
				}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestLateMappedRegionReplaysNotices: a write notice can arrive before
// the region it names is mapped here. Rank 0's KDistribute to rank 2 is
// lost once, so rank 2 learns of rank 1's write to the region from the
// grant of lock 1 before the retransmitted announcement maps it there;
// mapRegion must replay that notice, or rank 2's first read zero-fills the
// page instead of fetching rank 1's diff.
func TestLateMappedRegionReplaysNotices(t *testing.T) {
	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Faults.DropNexts = []myrinet.DropNext{{Src: 0, Dst: 2, Count: 1}}
			var got float64
			mappedAtGrant := true
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				switch tp.Rank() {
				case 0:
					tp.AllocShared(8)
				case 1: // lock 1's manager: its acquire is local
					r := tp.AllocShared(8)
					tp.LockAcquire(1)
					tp.WriteF64(r, 0, 42)
					tp.LockRelease(1)
				case 2:
					tp.Compute(sim.Millisecond) // rank 1 has released lock 1
					tp.LockAcquire(1)
					mappedAtGrant = tp.RegionByID(0) != nil
					tp.LockRelease(1)
					got = tp.ReadF64(tp.AllocShared(8), 0)
				}
				tp.Barrier(1)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.NetFaults.Dropped != 1 || mappedAtGrant {
				t.Fatalf("dropped %d packets, region mapped at the grant: %v; want the one KDistribute lost and the grant first",
					res.NetFaults.Dropped, mappedAtGrant)
			}
			if got != 42 {
				t.Errorf("rank 2 read %v from the late-mapped region, want rank 1's 42", got)
			}
		})
	}
}

func TestUnmappedPagePanics(t *testing.T) {
	cfg := tmk.DefaultConfig(2, tmk.TransportFastGM)
	_, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		if tp.Rank() == 1 {
			// Rank 1 never learned about any region: region handle nil.
			if tp.RegionByID(0) != nil {
				// Rank 0 may not have allocated yet — not an error.
				_ = tp.RegionByID(0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockStatsAndErrors(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		tp.LockAcquire(3)
		mustPanic(t, "recursive acquire", func() { tp.LockAcquire(3) })
		tp.LockRelease(3)
		mustPanic(t, "double release", func() { tp.LockRelease(3) })
	})
}

func TestStatsStringNonEmpty(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		r := tp.AllocShared(8)
		tp.WriteF64(r, 0, 1)
		tp.LockAcquire(0)
		tp.LockRelease(0)
		if tp.Stats().String() == "" {
			t.Error("empty stats string")
		}
	})
}

func TestManyRegions(t *testing.T) {
	const regions = 20
	cfg := tmk.DefaultConfig(3, tmk.TransportFastGM)
	_, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		rs := make([]*tmk.Region, regions)
		for i := 0; i < regions; i++ {
			rs[i] = tp.AllocShared(8 * (i + 1))
		}
		tp.Barrier(1)
		if tp.Rank() == 0 {
			for i, r := range rs {
				tp.WriteF64(r, 0, float64(i))
			}
		}
		tp.Barrier(2)
		for i, r := range rs {
			if got := tp.ReadF64(r, 0); got != float64(i) {
				t.Errorf("rank %d region %d = %v", tp.Rank(), i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierEpisodesAdvance(t *testing.T) {
	cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		for i := 0; i < 25; i++ {
			tp.Barrier(int32(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 25 explicit + 1 final implicit barrier per proc.
	if res.Stats.Barriers != 4*26 {
		t.Errorf("barriers = %d, want %d", res.Stats.Barriers, 4*26)
	}
}
