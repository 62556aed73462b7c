package apps

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// FFT3D is the paper's 3-D FFT: a Z×Z×Z complex transform decomposed by
// planes. Each process transforms its owned planes along the two local
// dimensions, then a transpose through shared memory (the all-to-all that
// gives 3D FFT the highest communication-to-computation ratio and data
// exchange rate of the four applications) rearranges the array so the
// third dimension becomes local; barriers separate the phases.
type FFT3D struct {
	Z                int // cube edge; must be a power of two
	Iters            int // forward transforms performed
	CostPerButterfly sim.Time
}

// DefaultFFT3D returns the Figure 4 configuration. Three transforms
// amortize the cold first-touch page distribution, as the original
// benchmark's repeated iterations do; CostPerButterfly is scaled ×4 to
// preserve the larger paper-size array's computation-to-communication
// ratio at our 32³ simulation size.
func DefaultFFT3D() *FFT3D {
	return &FFT3D{Z: 32, Iters: 3, CostPerButterfly: 180 * sim.Nanosecond}
}

// Name implements App.
func (f *FFT3D) Name() string { return "3dfft" }

// Size implements App (Table 1 notation: Z×Z×Z).
func (f *FFT3D) Size() string { return fmt.Sprintf("%dx%dx%d", f.Z, f.Z, f.Z) }

// initValue is the deterministic input field.
func fftInit(x, y, z int) complex128 {
	re := float64((x*31+y*17+z*7)%251) / 251.0
	im := float64((x*13+y*29+z*11)%239) / 239.0
	return complex(re, im)
}

// fftPlan is the precomputed work of one transform length: the
// bit-reversal swaps and, stage by stage, the twiddle factors of an
// iterative radix-2 Cooley-Tukey FFT. The twiddles come from the
// recurrence the transform was first written with (w *= wl from 1 in
// every stage), so a planned transform produces the same bits.
type fftPlan struct {
	n           int
	swaps       []int     // (i, j) pairs, i < j, in bit-reversal order
	twiddles    []float64 // interleaved (re, im); stage length 2 first, length/2 each
	butterflies int       // per transform, for compute charging
}

func newFFTPlan(n int) *fftPlan {
	if n&(n-1) != 0 {
		panic("fft: length not a power of two")
	}
	p := &fftPlan{n: n}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			p.swaps = append(p.swaps, i, j)
		}
	}
	p.twiddles = make([]float64, 0, 2*max(n-1, 0))
	for length := 2; length <= n; length <<= 1 {
		wl := cmplx.Rect(1, -2*math.Pi/float64(length))
		w := complex(1, 0)
		for k := 0; k < length/2; k++ {
			p.twiddles = append(p.twiddles, real(w), imag(w))
			w *= wl
		}
		p.butterflies += n / 2
	}
	return p
}

// transform is the in-place forward FFT of one row of n complex values
// stored as interleaved (re, im) float64 pairs. Each butterfly spells out
// complex multiplication's real arithmetic.
func (p *fftPlan) transform(a []float64) {
	a = a[:2*p.n]
	for k := 0; k < len(p.swaps); k += 2 {
		i, j := 2*p.swaps[k], 2*p.swaps[k+1]
		a[i], a[j] = a[j], a[i]
		a[i+1], a[j+1] = a[j+1], a[i+1]
	}
	tw := p.twiddles
	for half := 1; half < p.n; half <<= 1 {
		w := tw[:2*half]
		tw = tw[2*half:]
		for i := 0; i < 2*p.n; i += 4 * half {
			lo, hi := a[i:i+2*half], a[i+2*half:i+4*half]
			for k := 0; k < 2*half; k += 2 {
				wr, wi := w[k], w[k+1]
				vr, vi := hi[k], hi[k+1]
				tr, ti := vr*wr-vi*wi, vr*wi+vi*wr
				ur, ui := lo[k], lo[k+1]
				lo[k], lo[k+1] = ur+tr, ui+ti
				hi[k], hi[k+1] = ur-tr, ui-ti
			}
		}
	}
}

// Layout: slot index of point (x, y, z) in a [z][y][x] row-major array,
// two float64 slots per complex point.
func (f *FFT3D) idx(x, y, z int) int { return (z*f.Z+y)*f.Z + x }

// initRow fills row with the input field's x-row at (y, z).
func initRow(row []float64, y, z int) {
	for x := 0; 2*x < len(row); x++ {
		c := fftInit(x, y, z)
		row[2*x], row[2*x+1] = real(c), imag(c)
	}
}

// transformColumns transforms every column x of a [y][x] plane of
// interleaved rows, through the column buffer col.
func (p *fftPlan) transformColumns(plane, col []float64) {
	rw := 2 * p.n
	for x := 0; x < rw; x += 2 {
		for y := 0; y < p.n; y++ {
			col[2*y], col[2*y+1] = plane[y*rw+x], plane[y*rw+x+1]
		}
		p.transform(col)
		for y := 0; y < p.n; y++ {
			plane[y*rw+x], plane[y*rw+x+1] = col[2*y], col[2*y+1]
		}
	}
}

// Run implements App. Its DSM accesses — which region, range and values,
// in which order — and its butterfly counts are the application's cost;
// the host work around them is free to change (DESIGN §5).
func (f *FFT3D) Run(tp *tmk.Proc) {
	z := f.Z
	bytes := z * z * z * 16
	a := tp.AllocShared(bytes)
	b := tp.AllocShared(bytes)
	// The exchange region stages the transpose in (src, dst)-contiguous
	// blocks so each process communicates only volume/n bytes — the
	// page-friendly block layout DSM codes of the era used to avoid
	// faulting every page of the array during the all-to-all.
	xch := tp.AllocShared(bytes)

	n, me := tp.NProcs(), tp.Rank()
	zlo, zhi := blockRange(0, z, me, n)
	mine := zhi - zlo // owned z-planes of A, and x-planes of B
	plan := newFFTPlan(z)
	rw := 2 * z // float64 slots per row
	row, col := make([]float64, rw), make([]float64, rw)
	plane := make([]float64, z*rw) // [y][x], one z-plane of A
	// blocks stages both halves of the transpose: this rank's n outgoing
	// blocks back to back, as they lie in the exchange region, and later
	// its n incoming ones, which together are [z'][y][x−zlo].
	blocks := make([]float64, mine*z*rw)

	// Block offsets in the exchange region: block (s, d) holds the
	// elements moving from rank s's z-planes to rank d's x-planes,
	// laid out contiguously.
	blockOff := make([][]int, n+1)
	off := 0
	for s := 0; s < n; s++ {
		blockOff[s] = make([]int, n)
		szlo, szhi := blockRange(0, z, s, n)
		for d := 0; d < n; d++ {
			dxlo, dxhi := blockRange(0, z, d, n)
			blockOff[s][d] = off
			off += (szhi - szlo) * z * (dxhi - dxlo)
		}
	}

	for it := 0; it < f.Iters; it++ {
		// (Re-)initialize owned planes of A: each iteration is one full
		// forward transform of the same input field.
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				initRow(row, y, zz)
				tp.WriteF64Span(a, 2*f.idx(0, y, zz), row)
			}
		}
		tp.Barrier(int32(10 + it*5))
		// Phase 1: FFT along x then y for each owned z-plane (local).
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				r := plane[y*rw : (y+1)*rw]
				tp.ReadF64Span(a, 2*f.idx(0, y, zz), r)
				plan.transform(r)
			}
			plan.transformColumns(plane, col)
			for y := 0; y < z; y++ {
				tp.WriteF64Span(a, 2*f.idx(0, y, zz), plane[y*rw:(y+1)*rw])
			}
		}
		chargePoints(tp, mine*2*z*plan.butterflies, f.CostPerButterfly)
		tp.Barrier(int32(11 + it*5))

		// Phase 2a: scatter — each process reads its LOCAL z-planes of A
		// and writes, for every destination, the (myZ × Y × dstX)
		// sub-block into the exchange region, contiguously. Each row of A
		// is read once; the planes are this rank's own since phase 1, so
		// only a page some other rank also wrote (Z < 16) can fault, and
		// it faults at the same row as when every destination re-read it.
		base := blockOff[me][0]
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				tp.ReadF64Span(a, 2*f.idx(0, y, zz), row)
				for d := 0; d < n; d++ {
					dxlo, dxhi := blockRange(0, z, d, n)
					xw := dxhi - dxlo
					at := 2 * (blockOff[me][d] - base + ((zz-zlo)*z+y)*xw)
					copy(blocks[at:at+2*xw], row[2*dxlo:2*dxhi])
				}
			}
		}
		for d := 0; d < n; d++ { // an empty block's write is no access at all
			dxlo, dxhi := blockRange(0, z, d, n)
			at := 2 * (blockOff[me][d] - base)
			tp.WriteF64Span(xch, 2*blockOff[me][d], blocks[at:at+2*mine*z*(dxhi-dxlo)])
		}
		tp.Barrier(int32(12 + it*5))

		// Phase 2b: gather — each process reads the blocks destined to it
		// (volume/n of contiguous remote data) and assembles its x-planes
		// of B: B[x][y][z'] = A[z'][y][x] (element (x,y,z') of B lives at
		// slot idx(z', y, x), i.e. z' runs contiguously). The sources are
		// read in rotation, block (me+k) mod n at step k, own block last:
		// at each step every writer serves exactly one reader, where rank
		// order would have all readers ask writer 0 first.
		if mine > 0 {
			for k := 1; k <= n; k++ {
				s := (me + k) % n
				szlo, szhi := blockRange(0, z, s, n)
				if szhi > szlo {
					tp.ReadF64Span(xch, 2*blockOff[s][me], blocks[2*szlo*z*mine:2*szhi*z*mine])
				}
			}
			for x := zlo; x < zhi; x++ {
				for y := 0; y < z; y++ {
					for zz := 0; zz < z; zz++ {
						at := 2 * ((zz*z+y)*mine + x - zlo)
						row[2*zz], row[2*zz+1] = blocks[at], blocks[at+1]
					}
					tp.WriteF64Span(b, 2*f.idx(0, y, x), row)
				}
			}
		}
		tp.Barrier(int32(13 + it*5))

		// Phase 3: FFT along the now-local original-z dimension.
		for p := zlo; p < zhi; p++ {
			for y := 0; y < z; y++ {
				tp.ReadF64Span(b, 2*f.idx(0, y, p), row)
				plan.transform(row)
				tp.WriteF64Span(b, 2*f.idx(0, y, p), row)
			}
		}
		chargePoints(tp, mine*z*plan.butterflies, f.CostPerButterfly)
		tp.Barrier(int32(14 + it*5))
	}
}

// Sequential computes the reference transform as interleaved (re, im)
// slots in Run's output layout, B[x][y][z]. Every iteration transforms the
// same input field, so any number of them leaves one transform's result.
func (f *FFT3D) Sequential() []float64 {
	z := f.Z
	rw := 2 * z
	b := make([]float64, z*z*rw)
	if f.Iters == 0 {
		return b
	}
	plan := newFFTPlan(z)
	a := make([]float64, z*z*rw)
	col := make([]float64, rw)
	for zz := 0; zz < z; zz++ {
		plane := a[zz*z*rw : (zz+1)*z*rw]
		for y := 0; y < z; y++ {
			r := plane[y*rw : (y+1)*rw]
			initRow(r, y, zz)
			plan.transform(r)
		}
		plan.transformColumns(plane, col)
	}
	for x := 0; x < z; x++ {
		for y := 0; y < z; y++ {
			r := b[2*f.idx(0, y, x) : 2*f.idx(0, y, x)+rw]
			for zz := 0; zz < z; zz++ {
				at := 2 * f.idx(x, y, zz)
				r[2*zz], r[2*zz+1] = a[at], a[at+1]
			}
			plan.transform(r)
		}
	}
	return b
}

// Verify implements App.
func (f *FFT3D) Verify(tp *tmk.Proc) error {
	want := f.Sequential()
	z := f.Z
	got := make([]float64, 2*z*z*z)
	tp.ReadF64Span(tp.RegionByID(1), 0, got)
	for i := 0; i < len(want); i += 2 {
		if got[i] != want[i] || got[i+1] != want[i+1] {
			return fmt.Errorf("3dfft: point %d = (%v,%v), want (%v,%v)", i/2, got[i], got[i+1], want[i], want[i+1])
		}
	}
	return nil
}
