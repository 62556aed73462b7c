// Package apps implements the four applications of the paper's
// evaluation — SOR, TSP, Jacobi and 3D FFT from the TreadMarks
// distribution — in both a parallel (DSM) form and a sequential
// reference form used to validate results bit-for-bit.
//
// Computation performed natively by the Go code is charged to the
// virtual clock through per-operation cost constants calibrated to the
// paper's 700 MHz Pentium III nodes, preserving each application's
// computation-to-communication ratio.
package apps

import (
	"repro/internal/sim"
	"repro/internal/tmk"
)

// App is one benchmark application at a fixed problem size.
type App interface {
	// Name is the application's short name ("jacobi", "sor", …).
	Name() string
	// Size describes the problem size (Table 1 notation).
	Size() string
	// Run executes the SPMD body on one DSM process.
	Run(tp *tmk.Proc)
	// Verify checks rank 0's final shared state against the sequential
	// reference; call after Run completes cluster-wide.
	Verify(tp *tmk.Proc) error
}

// All returns the paper's four applications at their default (Figure 4)
// sizes.
func All() []App {
	return []App{
		DefaultJacobi(),
		DefaultSOR(),
		DefaultTSP(),
		DefaultFFT3D(),
	}
}

// ByName builds a default-size app by name.
func ByName(name string) App {
	for _, a := range All() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// blockRange splits [lo, hi) into nearly equal blocks and returns rank's
// half-open piece.
func blockRange(lo, hi, rank, n int) (int, int) {
	total := hi - lo
	base := total / n
	rem := total % n
	start := lo + rank*base + min(rank, rem)
	end := start + base
	if rank < rem {
		end++
	}
	return start, end
}

// chargePoints bills grid-point updates to the virtual CPU.
func chargePoints(tp *tmk.Proc, points int, per sim.Time) {
	if points > 0 {
		tp.Compute(sim.Time(points) * per)
	}
}
