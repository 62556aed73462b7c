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

// fft1d is an in-place iterative radix-2 Cooley-Tukey FFT. It returns
// the number of butterflies performed (for compute charging).
func fft1d(a []complex128) int {
	n := len(a)
	if n&(n-1) != 0 {
		panic("fft1d: length not a power of two")
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	butterflies := 0
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := a[i+k]
				v := a[i+k+length/2] * w
				a[i+k] = u + v
				a[i+k+length/2] = u - v
				w *= wl
				butterflies++
			}
		}
	}
	return butterflies
}

// Layout: slot index of point (x, y, z) in a [z][y][x] row-major array,
// two float64 slots per complex point.
func (f *FFT3D) idx(x, y, z int) int { return (z*f.Z+y)*f.Z + x }

// rowIO moves rows of complex values between a region and the caller's
// storage through one float64 scratch buffer, grown to the longest row.
type rowIO struct {
	tp  *tmk.Proc
	raw []float64
}

func (io *rowIO) scratch(n int) []float64 {
	if cap(io.raw) < 2*n {
		io.raw = make([]float64, 2*n)
	}
	return io.raw[:2*n]
}

// read fills row with the complex values laid out from slot base on.
func (io *rowIO) read(r *tmk.Region, base int, row []complex128) {
	raw := io.scratch(len(row))
	io.tp.ReadF64Span(r, 2*base, raw)
	for i := range row {
		row[i] = complex(raw[2*i], raw[2*i+1])
	}
}

// write stores a contiguous row of complex values at slot base.
func (io *rowIO) write(r *tmk.Region, base int, row []complex128) {
	raw := io.scratch(len(row))
	for i, c := range row {
		raw[2*i] = real(c)
		raw[2*i+1] = imag(c)
	}
	io.tp.WriteF64Span(r, 2*base, raw)
}

// Run implements App.
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

	n := tp.NProcs()
	zlo, zhi := blockRange(0, z, tp.Rank(), tp.NProcs())
	io := &rowIO{tp: tp}
	row, col := make([]complex128, z), make([]complex128, z)
	plane := make([][]complex128, z) // [y][x], one z-plane of A
	for y := range plane {
		plane[y] = make([]complex128, z)
	}

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
				for x := 0; x < z; x++ {
					row[x] = fftInit(x, y, zz)
				}
				io.write(a, f.idx(0, y, zz), row)
			}
		}
		tp.Barrier(int32(10 + it*5))
		// Phase 1: FFT along x then y for each owned z-plane (local).
		butterflies := 0
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				io.read(a, f.idx(0, y, zz), plane[y])
				butterflies += fft1d(plane[y])
			}
			for x := 0; x < z; x++ {
				for y := 0; y < z; y++ {
					col[y] = plane[y][x]
				}
				butterflies += fft1d(col)
				for y := 0; y < z; y++ {
					plane[y][x] = col[y]
				}
			}
			for y := 0; y < z; y++ {
				io.write(a, f.idx(0, y, zz), plane[y])
			}
		}
		chargePoints(tp, butterflies, f.CostPerButterfly)
		tp.Barrier(int32(11 + it*5))

		// Phase 2a: scatter — each process reads its LOCAL z-planes of A
		// and writes, for every destination, the (myZ × Y × dstX)
		// sub-block into the exchange region, contiguously.
		for d := 0; d < n; d++ {
			dxlo, dxhi := blockRange(0, z, d, n)
			xw := dxhi - dxlo
			if xw == 0 {
				continue
			}
			base := blockOff[tp.Rank()][d]
			blk := make([]complex128, (zhi-zlo)*z*xw)
			for zz := zlo; zz < zhi; zz++ {
				for y := 0; y < z; y++ {
					at := ((zz-zlo)*z + y) * xw
					io.read(a, f.idx(dxlo, y, zz), blk[at:at+xw])
				}
			}
			io.write(xch, base, blk)
		}
		tp.Barrier(int32(12 + it*5))

		// Phase 2b: gather — each process reads the blocks destined to it
		// (volume/n of contiguous remote data) and assembles its x-planes
		// of B: B[x][y][z'] = A[z'][y][x] (element (x,y,z') of B lives at
		// slot idx(z', y, x), i.e. z' runs contiguously).
		if zhi > zlo {
			xw := zhi - zlo
			blks := make([][]complex128, n)
			starts := make([]int, n)
			for s := 0; s < n; s++ {
				szlo, szhi := blockRange(0, z, s, n)
				starts[s] = szlo
				if szhi > szlo {
					blks[s] = make([]complex128, (szhi-szlo)*z*xw)
					io.read(xch, blockOff[s][tp.Rank()], blks[s])
				}
			}
			for x := zlo; x < zhi; x++ {
				for y := 0; y < z; y++ {
					for s := 0; s < n; s++ {
						blk := blks[s]
						if blk == nil {
							continue
						}
						szlo := starts[s]
						cnt := len(blk) / (z * xw)
						for k := 0; k < cnt; k++ {
							row[szlo+k] = blk[(k*z+y)*xw+(x-zlo)]
						}
					}
					io.write(b, f.idx(0, y, x), row)
				}
			}
		}
		tp.Barrier(int32(13 + it*5))

		// Phase 3: FFT along the now-local original-z dimension.
		butterflies = 0
		for p := zlo; p < zhi; p++ {
			for y := 0; y < z; y++ {
				io.read(b, f.idx(0, y, p), row)
				butterflies += fft1d(row)
				io.write(b, f.idx(0, y, p), row)
			}
		}
		chargePoints(tp, butterflies, f.CostPerButterfly)
		tp.Barrier(int32(14 + it*5))
	}
}

// Sequential computes the reference transform: B[x][y][z] layout as in
// Run's output.
func (f *FFT3D) Sequential() []complex128 {
	z := f.Z
	a := make([]complex128, z*z*z)
	b := make([]complex128, z*z*z)
	for it := 0; it < f.Iters; it++ {
		for zz := 0; zz < z; zz++ {
			for y := 0; y < z; y++ {
				for x := 0; x < z; x++ {
					a[f.idx(x, y, zz)] = fftInit(x, y, zz)
				}
			}
		}
		for zz := 0; zz < z; zz++ {
			row := make([]complex128, z)
			for y := 0; y < z; y++ {
				copy(row, a[f.idx(0, y, zz):f.idx(0, y, zz)+z])
				fft1d(row)
				copy(a[f.idx(0, y, zz):], row)
			}
			col := make([]complex128, z)
			for x := 0; x < z; x++ {
				for y := 0; y < z; y++ {
					col[y] = a[f.idx(x, y, zz)]
				}
				fft1d(col)
				for y := 0; y < z; y++ {
					a[f.idx(x, y, zz)] = col[y]
				}
			}
		}
		for xNew := 0; xNew < z; xNew++ {
			for y := 0; y < z; y++ {
				row := make([]complex128, z)
				for zz := 0; zz < z; zz++ {
					row[zz] = a[f.idx(xNew, y, zz)]
				}
				fft1d(row)
				copy(b[f.idx(0, y, xNew):], row)
			}
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
	for i := range want {
		if got[2*i] != real(want[i]) || got[2*i+1] != imag(want[i]) {
			return fmt.Errorf("3dfft: point %d = (%v,%v), want %v", i, got[2*i], got[2*i+1], want[i])
		}
	}
	return nil
}
