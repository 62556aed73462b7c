package apps

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tmk"
	"repro/internal/trace"
)

// The references are FFT3D as it was first written: a complex128 radix-2
// transform that advances its twiddle by w *= wl and counts its
// butterflies, rows moved through a float64 scratch buffer, transpose
// blocks made fresh every iteration. The planned float-row code must
// reproduce them bit for bit — the values it writes to shared memory, the
// calls and ranges it writes them with, and the butterfly counts it
// charges are the run's virtual cost.

// refFFT1D is the original in-place iterative transform; it returns the
// number of butterflies performed.
func refFFT1D(a []complex128) int {
	n := len(a)
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

// refSequential is the original sequential reference, B[x][y][z] as
// complex values.
func refSequential(f *FFT3D) []complex128 {
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
				refFFT1D(row)
				copy(a[f.idx(0, y, zz):], row)
			}
			col := make([]complex128, z)
			for x := 0; x < z; x++ {
				for y := 0; y < z; y++ {
					col[y] = a[f.idx(x, y, zz)]
				}
				refFFT1D(col)
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
				refFFT1D(row)
				copy(b[f.idx(0, y, xNew):], row)
			}
		}
	}
	return b
}

// refRowIO moves complex rows through one float64 scratch buffer.
type refRowIO struct {
	tp  *tmk.Proc
	raw []float64
}

func (io *refRowIO) scratch(n int) []float64 {
	if cap(io.raw) < 2*n {
		io.raw = make([]float64, 2*n)
	}
	return io.raw[:2*n]
}

func (io *refRowIO) read(r *tmk.Region, base int, row []complex128) {
	raw := io.scratch(len(row))
	io.tp.ReadF64Span(r, 2*base, raw)
	for i := range row {
		row[i] = complex(raw[2*i], raw[2*i+1])
	}
}

func (io *refRowIO) write(r *tmk.Region, base int, row []complex128) {
	raw := io.scratch(len(row))
	for i, c := range row {
		raw[2*i] = real(c)
		raw[2*i+1] = imag(c)
	}
	io.tp.WriteF64Span(r, 2*base, raw)
}

// refRun is the original FFT3D.Run, its gather rotated as Run's is.
func refRun(f *FFT3D, tp *tmk.Proc) {
	z := f.Z
	bytes := z * z * z * 16
	a := tp.AllocShared(bytes)
	b := tp.AllocShared(bytes)
	xch := tp.AllocShared(bytes)

	n := tp.NProcs()
	zlo, zhi := blockRange(0, z, tp.Rank(), tp.NProcs())
	io := &refRowIO{tp: tp}
	row, col := make([]complex128, z), make([]complex128, z)
	plane := make([][]complex128, z)
	for y := range plane {
		plane[y] = make([]complex128, z)
	}
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
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				for x := 0; x < z; x++ {
					row[x] = fftInit(x, y, zz)
				}
				io.write(a, f.idx(0, y, zz), row)
			}
		}
		tp.Barrier(int32(10 + it*5))
		butterflies := 0
		for zz := zlo; zz < zhi; zz++ {
			for y := 0; y < z; y++ {
				io.read(a, f.idx(0, y, zz), plane[y])
				butterflies += refFFT1D(plane[y])
			}
			for x := 0; x < z; x++ {
				for y := 0; y < z; y++ {
					col[y] = plane[y][x]
				}
				butterflies += refFFT1D(col)
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

		if zhi > zlo {
			xw := zhi - zlo
			blks := make([][]complex128, n)
			starts := make([]int, n)
			for k := 1; k <= n; k++ {
				s := (tp.Rank() + k) % n
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

		butterflies = 0
		for p := zlo; p < zhi; p++ {
			for y := 0; y < z; y++ {
				io.read(b, f.idx(0, y, p), row)
				butterflies += refFFT1D(row)
				io.write(b, f.idx(0, y, p), row)
			}
		}
		chargePoints(tp, butterflies, f.CostPerButterfly)
		tp.Barrier(int32(14 + it*5))
	}
}

// sameBits reports the first slot where the interleaved floats differ in
// bits from the complex reference, or -1.
func sameBits(got []float64, want []complex128) int {
	for i, c := range want {
		if math.Float64bits(got[2*i]) != math.Float64bits(real(c)) ||
			math.Float64bits(got[2*i+1]) != math.Float64bits(imag(c)) {
			return i
		}
	}
	return -1
}

func TestFFTPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 2; n <= 1024; n <<= 1 {
		p := newFFTPlan(n)
		for trial := 0; trial < 4; trial++ {
			want := make([]complex128, n)
			got := make([]float64, 2*n)
			for i := range want {
				re, im := rng.NormFloat64(), rng.NormFloat64()
				if trial == 0 { // exact zeros and signed zeros
					re, im = float64(rng.Intn(3)-1)*0, float64(rng.Intn(5)-2)
				}
				want[i] = complex(re, im)
				got[2*i], got[2*i+1] = re, im
			}
			count := refFFT1D(want)
			p.transform(got)
			if count != p.butterflies {
				t.Fatalf("n=%d: plan charges %d butterflies, reference counted %d", n, p.butterflies, count)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d trial %d: point %d = (%v,%v), reference %v", n, trial, i, got[2*i], got[2*i+1], want[i])
			}
		}
	}
}

func TestFFT3DSequentialMatchesReference(t *testing.T) {
	for _, z := range []int{4, 8, 16, 32} {
		for _, iters := range []int{1, 2} {
			f := &FFT3D{Z: z, Iters: iters}
			if i := sameBits(f.Sequential(), refSequential(f)); i >= 0 {
				t.Errorf("Z=%d Iters=%d: Sequential differs from the reference at point %d", z, iters, i)
			}
		}
	}
}

// TestFFT3DRunMatchesReference runs the planned Run and the reference on
// the same cluster configuration: the answer must verify and every
// virtual number — time, protocol statistics, transport counters, pinned
// memory — must be equal. Sixteen nodes at Z = 8 or 16 leave ranks with
// no planes, and at Z ≤ 8 several ranks' planes share a page.
func TestFFT3DRunMatchesReference(t *testing.T) {
	cases := []struct {
		z, nodes int
		kind     tmk.TransportKind
	}{
		{4, 3, tmk.TransportFastGM},
		{8, 1, tmk.TransportFastGM}, {8, 3, tmk.TransportFastGM}, {8, 16, tmk.TransportFastGM},
		{16, 1, tmk.TransportFastGM}, {16, 3, tmk.TransportFastGM}, {16, 16, tmk.TransportFastGM},
		{8, 3, tmk.TransportUDPGM}, {8, 3, tmk.TransportRDMAGM}, {16, 16, tmk.TransportRDMAGM},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("Z%d/%dp/%s", c.z, c.nodes, c.kind), func(t *testing.T) {
			f := &FFT3D{Z: c.z, Iters: 2, CostPerButterfly: 45}
			run := func(body func(*FFT3D, *tmk.Proc)) *tmk.Result {
				var verr error
				res, err := tmk.NewCluster(tmk.DefaultConfig(c.nodes, c.kind)).Run(func(tp *tmk.Proc) {
					body(f, tp)
					tp.Barrier(2_000_000)
					if tp.Rank() == 0 {
						verr = f.Verify(tp)
					}
				})
				if err == nil {
					err = verr
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got, want := run((*FFT3D).Run), run(refRun)
			switch {
			case got.ExecTime != want.ExecTime:
				t.Errorf("ExecTime %v, reference %v", got.ExecTime, want.ExecTime)
			case got.Stats != want.Stats:
				t.Errorf("Stats %v, reference %v", &got.Stats, &want.Stats)
			case got.Transport != want.Transport:
				t.Errorf("Transport %v, reference %v", &got.Transport, &want.Transport)
			case got.MaxPinnedBytes != want.MaxPinnedBytes:
				t.Errorf("MaxPinnedBytes %d, reference %d", got.MaxPinnedBytes, want.MaxPinnedBytes)
			}
		})
	}
}

// TestFFT3DGatherReadsSourcesInRotation: in every gather, the k-th writer
// rank r fetches exchange-region diffs from is (r+k) mod n, so the first
// wave of requests reaches n distinct writers instead of all readers
// asking writer 0 first. A fault's wave may also fetch the next pages, and
// so the next writer's, ahead of their reads: a writer counts once, at its
// first fetch.
func TestFFT3DGatherReadsSourcesInRotation(t *testing.T) {
	const nodes, xchRegion = 8, 2 // Run allocates A, B, then the exchange region
	for _, kind := range []tmk.TransportKind{tmk.TransportUDPGM, tmk.TransportFastGM} {
		t.Run(string(kind), func(t *testing.T) {
			f := &FFT3D{Z: 16, Iters: 2, CostPerButterfly: 180}
			type gather struct{ rank, barrier int }
			after := make([]int, nodes) // each rank's last crossed barrier
			fetches := map[gather][]int{}
			cfg := tmk.DefaultConfig(nodes, kind)
			cfg.Trace = trace.New(1)
			cfg.Trace.Subscribe(func(e trace.Event) {
				switch {
				case e.Layer != trace.LayerTMK:
				case e.Kind == trace.KindBarrier:
					after[e.Rank] = int(e.ID)
				case e.Kind == trace.KindDiffFetch && e.Region == xchRegion:
					g := gather{e.Rank, after[e.Rank]}
					if !slices.Contains(fetches[g], e.Peer) {
						fetches[g] = append(fetches[g], e.Peer)
					}
				}
			})
			if _, err := tmk.Run(cfg, f.Run); err != nil {
				t.Fatal(err)
			}
			for it := 0; it < f.Iters; it++ {
				firstWave := map[int]bool{}
				for r := 0; r < nodes; r++ {
					got := fetches[gather{r, 12 + it*5}]
					if len(got) != nodes-1 {
						t.Fatalf("iteration %d: rank %d fetched from %v, want %d writers", it, r, got, nodes-1)
					}
					for k, w := range got {
						if want := (r + k + 1) % nodes; w != want {
							t.Fatalf("iteration %d: rank %d fetched from %v, want writer %d at step %d", it, r, got, want, k+1)
						}
					}
					firstWave[got[0]] = true
				}
				if len(firstWave) != nodes {
					t.Errorf("iteration %d: the first wave asked %d distinct writers, want %d", it, len(firstWave), nodes)
				}
			}
			if len(fetches) != nodes*f.Iters {
				t.Errorf("exchange-region fetches outside the gathers: %d groups, want %d", len(fetches), nodes*f.Iters)
			}
		})
	}
}
