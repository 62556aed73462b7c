package tmk_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestMain fails the package if any test's run stored into the page every
// frame-less copy reads as. The tests here reach each storing path — an
// application write, a fetched copy, an applied diff, a merged home page —
// so a path that writes through the read view instead
// of a private frame turns the whole run red.
func TestMain(m *testing.M) {
	code := m.Run()
	if !tmk.ZeroPageIsZero() {
		fmt.Fprintln(os.Stderr, "FAIL: a store landed in the shared zero page")
		code = 1
	}
	os.Exit(code)
}

// TestFramesFollowTheTouch runs the benchmark's two page-heavy applications
// and takes a census on every rank: a frame exists only for a page the rank
// wrote, was sent or patched, and the chunks behind the frames are those
// pages rounded up, region by region — not the regions.
func TestFramesFollowTheTouch(t *testing.T) {
	for _, c := range []struct {
		app   apps.App
		nodes int
	}{
		{&apps.Jacobi{N: 640, Iters: 10, CostPerPoint: 120 * sim.Nanosecond}, 16},
		{&apps.FFT3D{Z: 64, Iters: 3, CostPerButterfly: 45 * sim.Nanosecond}, 8},
	} {
		t.Run(c.app.Name(), func(t *testing.T) {
			var all tmk.FrameCensus
			_, err := tmk.Run(tmk.DefaultConfig(c.nodes, tmk.TransportFastGM), func(tp *tmk.Proc) {
				c.app.Run(tp)
				fc := tp.FrameCensus()
				if fc.Frames > fc.Touched || fc.Chunked > fc.ChunkBound {
					t.Errorf("rank %d: %d frames in %d frames of chunks for %d touched pages (chunk bound %d)",
						tp.Rank(), fc.Frames, fc.Chunked, fc.Touched, fc.ChunkBound)
				}
				all.Pages, all.Frames, all.Chunked = all.Pages+fc.Pages, all.Frames+fc.Frames, all.Chunked+fc.Chunked
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d page copies mapped, %d frames carved, %d backed by chunks", all.Pages, all.Frames, all.Chunked)
			if all.Frames == 0 || 2*all.Chunked > all.Pages {
				t.Errorf("%d of %d page copies backed: storage does not follow the touch", all.Chunked, all.Pages)
			}
		})
	}
}

// TestUntouchedPagesStayFrameless follows four pages of one region through
// three ranks. A copy of a page nobody has stored into is the zero page,
// whether it is the owner's or one a cold read fault zero-filled: it reads
// as zeros and is twinned by a write fault without gaining a frame. The
// frame appears at the store, by whichever path brings it: the
// application's write, or a diff applied to a copy that until then had no
// frame at all.
func TestUntouchedPagesStayFrameless(t *testing.T) {
	const slots = tmk.PageSize / 8
	frames := func(tp *tmk.Proc, r *tmk.Region, want ...bool) {
		t.Helper()
		for pg, w := range want {
			if tp.HasFrame(r, pg) != w {
				t.Errorf("rank %d at %v: page %d has a frame: %v, want %v", tp.Rank(), tp.Now(), pg, !w, w)
			}
		}
	}
	_, err := tmk.Run(tmk.DefaultConfig(3, tmk.TransportFastGM), func(tp *tmk.Proc) {
		r := tp.AllocShared(4 * tmk.PageSize)
		frames(tp, r, false, false, false, false)
		tp.Barrier(1)
		switch tp.Rank() {
		case 0:
			if v := tp.ReadF64(r, 3*slots+9); v != 0 {
				t.Errorf("untouched page reads %v", v)
			}
			if twin := tp.TwinOnly(r, 3); !bytes.Equal(twin, make([]byte, tmk.PageSize)) {
				t.Error("the twin of an untouched page is not a page of zeros")
			}
			frames(tp, r, false, false, false, false)
			tp.WriteF64(r, 1*slots, 1.5) // the application's write
			frames(tp, r, false, true, false, false)
		case 1:
			tp.WriteF64(r, 5, 7.5) // zero-filled, then written
			frames(tp, r, true, false, false, false)
		case 2:
			if v := tp.ReadF64(r, 2*slots+3); v != 0 { // zero-filled
				t.Errorf("zero-filled page reads %v", v)
			}
			frames(tp, r, false, false, false, false)
		}
		tp.Barrier(2)
		if tp.Rank() != 1 {
			// Rank 0 patches its frame-less copy with rank 1's diff; rank 2
			// applies the same diff to the zeros of its first copy.
			if a, b := tp.ReadF64(r, 5), tp.ReadF64(r, 6); a != 7.5 || b != 0 {
				t.Errorf("rank %d: page 0 reads %v, %v; want 7.5, 0", tp.Rank(), a, b)
			}
			frames(tp, r, true)
		}
		tp.Barrier(3)
		if tp.Rank() == 1 {
			tp.WriteF64(r, 6, 8.5)
		}
		tp.Barrier(4)
		if a, b := tp.ReadF64(r, 5), tp.ReadF64(r, 6); a != 7.5 || b != 8.5 { // a diff onto a framed copy
			t.Errorf("rank %d: page 0 reads %v, %v; want 7.5, 8.5", tp.Rank(), a, b)
		}
		frames(tp, r, true, tp.Rank() == 0, false, false)
		if fc := tp.FrameCensus(); fc.Frames > fc.Touched || fc.Chunked != 4 {
			t.Errorf("rank %d: %+v", tp.Rank(), fc)
		}
		if tp.Rank() != 0 && tp.HasCopy(r, 3) {
			t.Errorf("rank %d holds a copy of a page it never asked for", tp.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccessorsWalkFrames stores and reads ranges that start mid-page and run
// over more pages than one chunk holds, so consecutive pages lie in different
// allocations: the accessors must agree with a flat copy of the region byte
// for byte, and pages outside the range must stay frame-less zeros.
func TestAccessorsWalkFrames(t *testing.T) {
	run1(t, func(tp *tmk.Proc) {
		const pages, off, n = 40, 2*tmk.PageSize + 104, 20 * tmk.PageSize
		r := tp.Alloc(pages * tmk.PageSize)
		flat := make([]byte, pages*tmk.PageSize)
		for i := off; i < off+n; i++ {
			flat[i] = byte(i*7 + i>>9)
		}
		tp.WriteAt(r, off, flat[off:off+n])
		vals := []float64{1.25, -2.5, 3.75}
		tp.WriteF64Span(r, 30*tmk.PageSize/8-1, vals) // the last slot of page 29, then page 30
		for i, v := range vals {
			binary.LittleEndian.PutUint64(flat[30*tmk.PageSize-8+8*i:], math.Float64bits(v))
		}
		if fc := tp.FrameCensus(); fc.Frames != 23 || fc.Chunked != 32 {
			t.Errorf("%+v, want 23 frames carved out of two chunks", fc)
		}
		if !bytes.Equal(tp.ReadBytes(r, 0, len(flat)), flat) {
			t.Error("ReadBytes over the region differs from what was stored")
		}
		if !bytes.Equal(tp.ReadBytes(r, off+5, n-9), flat[off+5:off+n-4]) {
			t.Error("ReadBytes over the stored range differs from what was stored")
		}
		got := make([]float64, len(flat)/8)
		tp.ReadF64Span(r, 0, got)
		for i, v := range got {
			if math.Float64bits(v) != binary.LittleEndian.Uint64(flat[8*i:]) {
				t.Fatalf("ReadF64Span slot %d = %v", i, v)
			}
		}
		if tp.HasFrame(r, 0) || tp.HasFrame(r, 39) {
			t.Error("reading a page gave it a frame")
		}
		one := tp.ReadBytes(r, 3*tmk.PageSize+8, 16)
		tp.WriteF64(r, 3*slotsPerPage+1, 4.5)
		if math.Float64bits(4.5) != binary.LittleEndian.Uint64(one) {
			t.Error("ReadBytes within one page is not a view of it")
		}
	})
}

// TestZeroTwinStaysZero: a write fault on a page never stored into twins it
// with the shared zero page, allocating nothing, and the first write into
// that twin — another writer's data merged mid-interval — gives the page a
// twin of its own. Rank 1 writes a word of page pg under a lock; rank 0,
// which has never stored into pg, writes another word of it and then takes
// the lock, whose grant invalidates the writable page: the re-read applies
// rank 1's diff (homeless) or merges the home's copy (home-based) into page
// and twin alike. Both words must survive, and the zero page stay zeros.
func TestZeroTwinStaysZero(t *testing.T) {
	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportRDMAGM} {
		t.Run(string(kind), func(t *testing.T) {
			_, err := tmk.Run(tmk.DefaultConfig(2, kind), func(tp *tmk.Proc) {
				r := tp.AllocShared(2 * tmk.PageSize)
				const pg = 1 // rank 1's block: a page rank 0 fetches, not one it is home of
				if kind == tmk.TransportRDMAGM && tp.HomeOf(r.StartPage+pg) != 1 {
					t.Fatalf("page %d of a two-page region over two ranks is homed at %d", pg, tp.HomeOf(r.StartPage+pg))
				}
				base := pg * tmk.PageSize / 8
				tp.Barrier(1)
				if tp.Rank() == 1 {
					tp.LockAcquire(1) // rank 1 manages lock 1: a local acquire
					tp.WriteF64(r, base+5, 7.5)
					tp.LockRelease(1)
					tp.Compute(2 * sim.Millisecond) // its interval leaves with the grant, not a barrier arrival
				} else {
					tp.Compute(sim.Millisecond) // after rank 1's release
					tp.WriteF64(r, base, 1.5)
					tp.LockAcquire(1)
					if v := tp.ReadF64(r, base+5); v != 7.5 {
						t.Errorf("%s: rank 0 reads %v under the lock, want 7.5", kind, v)
					}
					tp.LockRelease(1)
				}
				tp.Barrier(2)
				if a, b := tp.ReadF64(r, base), tp.ReadF64(r, base+5); a != 1.5 || b != 7.5 {
					t.Errorf("%s: rank %d reads %v, %v; want 1.5, 7.5", kind, tp.Rank(), a, b)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tmk.ZeroPageIsZero() {
				t.Fatal("a write into a zero twin landed in the shared zero page")
			}
		})
	}

	// The write fault of a never-stored page: a twin, and no allocation,
	// with no twin to reuse.
	run1(t, func(tp *tmk.Proc) {
		const pages = 32
		r := tp.Alloc(pages * tmk.PageSize)
		for pg := 0; pg < pages; pg++ {
			tp.TwinOnly(r, pg) // grows the dirty list once
		}
		tp.Barrier(1)
		tp.DropFreeTwins()
		pg := 0
		allocs := testing.AllocsPerRun(pages-1, func() {
			tp.TwinOnly(r, pg)
			pg++
		})
		if allocs != 0 {
			t.Errorf("a write fault of a never-stored page allocates %v objects", allocs)
		}
		if tp.Stats().TwinsCreated != 2*pages || tp.HasFrame(r, 0) {
			t.Errorf("%d twins created, page 0 framed %v; want %d twins and no frame", tp.Stats().TwinsCreated, tp.HasFrame(r, 0), 2*pages)
		}
	})
}
