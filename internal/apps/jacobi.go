package apps

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// Jacobi is the paper's Jacobi application: iterative grid relaxation on
// an N×N float64 grid with a block-row decomposition, synchronizing
// exclusively with barriers (the paper: "Jacobi exclusively uses barriers
// for synchronization") and ping-ponging between two shared grids. Its
// computation-to-communication ratio is the highest of the four
// applications, which is why it shows the paper's smallest (≈2×) but
// still real improvement from FAST/GM.
type Jacobi struct {
	N            int      // grid dimension
	Iters        int      // relaxation sweeps
	CostPerPoint sim.Time // testbed CPU time per 5-point update
}

// DefaultJacobi returns the Figure 4 configuration. CostPerPoint is the
// paper-testbed update cost scaled ×4 to preserve the 2048²-grid
// computation-to-communication ratio at our 512² simulation size.
func DefaultJacobi() *Jacobi {
	return &Jacobi{N: 512, Iters: 10, CostPerPoint: 120 * sim.Nanosecond}
}

// Name implements App.
func (j *Jacobi) Name() string { return "jacobi" }

// Size implements App (Table 1 notation: Z×Z).
func (j *Jacobi) Size() string { return fmt.Sprintf("%dx%d", j.N, j.N) }

// boundary is the fixed deterministic edge value.
func jacobiBoundary(i, jj int) float64 {
	return float64((i*31+jj*17)%97) / 97.0
}

// Run implements App.
func (j *Jacobi) Run(tp *tmk.Proc) {
	n := j.N
	lo, hi := blockRange(1, n-1, tp.Rank(), tp.NProcs())
	out := make([]float64, n-2)
	up, mid, down := make([]float64, n), make([]float64, n), make([]float64, n)
	a := tp.AllocShared(n * n * 8)
	b := tp.AllocShared(n * n * 8)
	if tp.Rank() == 0 {
		edge := make([]float64, n)
		for jj := 0; jj < n; jj++ {
			edge[jj] = jacobiBoundary(0, jj)
		}
		tp.WriteF64Span(a, 0, edge)
		tp.WriteF64Span(b, 0, edge)
		for jj := 0; jj < n; jj++ {
			edge[jj] = jacobiBoundary(n-1, jj)
		}
		tp.WriteF64Span(a, (n-1)*n, edge)
		tp.WriteF64Span(b, (n-1)*n, edge)
		for i := 1; i < n-1; i++ {
			row := []float64{jacobiBoundary(i, 0), jacobiBoundary(i, n-1)}
			tp.WriteF64Span(a, i*n, row[:1])
			tp.WriteF64Span(a, i*n+n-1, row[1:])
			tp.WriteF64Span(b, i*n, row[:1])
			tp.WriteF64Span(b, i*n+n-1, row[1:])
		}
	}
	tp.Barrier(1)

	// Grids ping-pong: even sweeps read region 0 (A) and write region 1
	// (B), odd sweeps the reverse.
	src, dst := a, b
	for it := 0; it < j.Iters; it++ {
		for i := lo; i < hi; i++ {
			tp.ReadF64Span(src, (i-1)*n, up)
			tp.ReadF64Span(src, i*n, mid)
			tp.ReadF64Span(src, (i+1)*n, down)
			for c := 1; c < n-1; c++ {
				out[c-1] = 0.25 * (up[c] + down[c] + mid[c-1] + mid[c+1])
			}
			tp.WriteF64Span(dst, i*n+1, out)
		}
		chargePoints(tp, (hi-lo)*(n-2), j.CostPerPoint)
		tp.Barrier(int32(10 + it))
		src, dst = dst, src
	}
}

// Sequential computes the reference grid.
func (j *Jacobi) Sequential() []float64 {
	n := j.N
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for jj := 0; jj < n; jj++ {
		a[jj] = jacobiBoundary(0, jj)
		a[(n-1)*n+jj] = jacobiBoundary(n-1, jj)
	}
	for i := 1; i < n-1; i++ {
		a[i*n] = jacobiBoundary(i, 0)
		a[i*n+n-1] = jacobiBoundary(i, n-1)
	}
	copy(b, a)
	src, dst := a, b
	for it := 0; it < j.Iters; it++ {
		for i := 1; i < n-1; i++ {
			for c := 1; c < n-1; c++ {
				dst[i*n+c] = 0.25 * (src[(i-1)*n+c] + src[(i+1)*n+c] + src[i*n+c-1] + src[i*n+c+1])
			}
		}
		src, dst = dst, src
	}
	return src
}

// Verify implements App.
func (j *Jacobi) Verify(tp *tmk.Proc) error {
	want := j.Sequential()
	// After an even number of swaps the final grid is region 0 (A),
	// after an odd number it is region 1 (B); the last-written grid is
	// the one holding iteration Iters' result.
	n := j.N
	region := tp.RegionByID(int32(j.Iters % 2))
	got := make([]float64, n*n)
	tp.ReadF64Span(region, 0, got)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("jacobi: cell %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
