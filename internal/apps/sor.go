package apps

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// SOR is the paper's red-black successive over-relaxation on an M×N
// float64 grid. Red and black half-sweeps alternate with barriers, and —
// following the paper's application characterization ("SOR uses locks for
// synchronization more than any other application") — every half-sweep
// also folds each process's local residual into a lock-protected global
// accumulator, making SOR by far the most lock-intensive of the four
// applications. The high cost of lock acquisition over UDP/GM is what
// produces the paper's ≈6× improvement (and the UDP/GM slowdown at 16
// nodes).
type SOR struct {
	M, N         int // grid rows × cols
	Iters        int
	Omega        float64
	CostPerPoint sim.Time
}

// DefaultSOR returns the Figure 4 configuration.
func DefaultSOR() *SOR {
	return &SOR{M: 512, N: 256, Iters: 10, Omega: 1.25, CostPerPoint: 140 * sim.Nanosecond}
}

// Name implements App.
func (s *SOR) Name() string { return "sor" }

// Size implements App (Table 1 notation: M×N).
func (s *SOR) Size() string { return fmt.Sprintf("%dx%d", s.M, s.N) }

func sorInit(i, j int) float64 {
	return float64((i*13+j*7)%101) / 101.0
}

// Run implements App.
func (s *SOR) Run(tp *tmk.Proc) {
	m, n := s.M, s.N
	grid := tp.AllocShared(m * n * 8)
	res := tp.AllocShared(8) // lock-protected residual accumulator

	if tp.Rank() == 0 {
		row := make([]float64, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				row[j] = sorInit(i, j)
			}
			tp.WriteF64Span(grid, i*n, row)
		}
	}
	tp.Barrier(1)

	lo, hi := blockRange(1, m-1, tp.Rank(), tp.NProcs())
	up, mid, down, out := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for it := 0; it < s.Iters; it++ {
		local := 0.0
		for _, color := range []int{0, 1} {
			points := 0
			for i := lo; i < hi; i++ {
				tp.ReadF64Span(grid, (i-1)*n, up)
				tp.ReadF64Span(grid, i*n, mid)
				tp.ReadF64Span(grid, (i+1)*n, down)
				copy(out, mid)
				for j := 1; j < n-1; j++ {
					if (i+j)%2 != color {
						continue
					}
					old := mid[j]
					v := old + s.Omega*(0.25*(up[j]+down[j]+mid[j-1]+mid[j+1])-old)
					out[j] = v
					d := v - old
					local += d * d
					points++
				}
				tp.WriteF64Span(grid, i*n, out)
			}
			chargePoints(tp, points, s.CostPerPoint)
			tp.Barrier(int32(100 + it*2 + color))
		}
		// Lock-protected global residual fold once per sweep — the lock
		// traffic that makes SOR the most lock-intensive application of
		// the suite (paper §3.3.1) while still letting it scale.
		tp.LockAcquire(0)
		tp.WriteF64(res, 0, tp.ReadF64(res, 0)+local)
		tp.LockRelease(0)
	}
}

// Sequential computes the reference grid (identical sweep order).
func (s *SOR) Sequential() []float64 {
	m, n := s.M, s.N
	g := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g[i*n+j] = sorInit(i, j)
		}
	}
	for it := 0; it < s.Iters; it++ {
		for _, color := range []int{0, 1} {
			for i := 1; i < m-1; i++ {
				for j := 1; j < n-1; j++ {
					if (i+j)%2 != color {
						continue
					}
					old := g[i*n+j]
					g[i*n+j] = old + s.Omega*(0.25*(g[(i-1)*n+j]+g[(i+1)*n+j]+g[i*n+j-1]+g[i*n+j+1])-old)
				}
			}
		}
	}
	return g
}

// Verify implements App.
func (s *SOR) Verify(tp *tmk.Proc) error {
	want := s.Sequential()
	got := make([]float64, s.M*s.N)
	tp.ReadF64Span(tp.RegionByID(0), 0, got)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("sor: cell %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
