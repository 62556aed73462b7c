package apps

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// TSP is the paper's branch-and-bound travelling-salesman solver. Work
// units are tour prefixes of PrefixDepth cities handed out through a
// lock-protected shared counter; the global best bound lives in shared
// memory guarded by a second lock ("TSP mostly uses locks for
// synchronization"). Workers prune against a possibly stale bound —
// stale bounds are conservative, so the optimum is unaffected.
type TSP struct {
	Cities      int
	PrefixDepth int      // cities fixed per work unit (including city 0)
	CostPerNode sim.Time // CPU per search-tree node visited
}

// DefaultTSP returns the Figure 4 configuration. PrefixDepth 3 gives the
// coarse work grain of the original application; finer grains multiply
// lock-protocol intervals past TreadMarks' 32 KB message cap.
func DefaultTSP() *TSP {
	return &TSP{Cities: 13, PrefixDepth: 3, CostPerNode: 40 * sim.Nanosecond}
}

// Name implements App.
func (t *TSP) Name() string { return "tsp" }

// Size implements App (Table 1 notation: city count).
func (t *TSP) Size() string { return fmt.Sprintf("%d cities", t.Cities) }

// dist builds the deterministic symmetric distance matrix: cities on a
// synthetic plane, Euclidean distances scaled to integers.
func (t *TSP) dist() [][]int32 {
	n := t.Cities
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = int64((i*613 + 127) % 503)
		ys[i] = int64((i*797 + 281) % 499)
	}
	d := make([][]int32, n)
	for i := range d {
		d[i] = make([]int32, n)
		for j := 0; j < n; j++ {
			dx, dy := float64(xs[i]-xs[j]), float64(ys[i]-ys[j])
			d[i][j] = int32(math.Sqrt(dx*dx+dy*dy) + 0.5)
		}
	}
	return d
}

// shared layout (int32 slots): 0 = best bound, 1 = next work unit.
const (
	tspSlotBest = 0
	tspSlotNext = 1
)

// locks: 0 guards the work counter, 1 guards the best bound.
const (
	tspLockWork = 0
	tspLockBest = 1
)

// Run implements App.
func (t *TSP) Run(tp *tmk.Proc) {
	d := t.dist()
	shared := tp.AllocShared(16)
	if tp.Rank() == 0 {
		tp.WriteI32(shared, tspSlotBest, math.MaxInt32)
		tp.WriteI32(shared, tspSlotNext, 0)
	}
	tp.Barrier(1)

	numPrefixes := t.prefixCount()
	for {
		tp.LockAcquire(tspLockWork)
		idx := int(tp.ReadI32(shared, tspSlotNext))
		if idx < numPrefixes {
			tp.WriteI32(shared, tspSlotNext, int32(idx+1))
		}
		tp.LockRelease(tspLockWork)
		if idx >= numPrefixes {
			break
		}

		prefix, plen, ok := t.prefixByIndex(d, idx)
		if !ok {
			continue
		}
		// Prune whole prefixes against the (possibly stale) bound.
		bound := tp.ReadI32(shared, tspSlotBest)
		if plen >= bound {
			chargePoints(tp, 1, t.CostPerNode)
			continue
		}
		visited := 0
		for _, c := range prefix {
			visited |= 1 << c
		}
		best := bound
		nodes := 0
		tourBest := t.solve(d, prefix, visited, plen, best, &nodes)
		chargePoints(tp, nodes, t.CostPerNode)
		if tourBest < bound {
			tp.LockAcquire(tspLockBest)
			if tourBest < tp.ReadI32(shared, tspSlotBest) {
				tp.WriteI32(shared, tspSlotBest, tourBest)
			}
			tp.LockRelease(tspLockBest)
		}
	}
	tp.Barrier(2)
}

// prefixCount returns the number of work units: ordered choices of
// (PrefixDepth-1) cities after city 0.
func (t *TSP) prefixCount() int {
	count := 1
	for k := 0; k < t.PrefixDepth-1; k++ {
		count *= t.Cities - 1 - k
	}
	return count
}

// prefixByIndex decodes work unit idx into a concrete tour prefix
// (starting at city 0) and its path length. ok is false if the prefix
// revisits a city (indices enumerate ordered selections, all valid).
func (t *TSP) prefixByIndex(d [][]int32, idx int) ([]int, int32, bool) {
	n := t.Cities
	// Room for the whole tour: solve extends the prefix in place.
	prefix := make([]int, 1, n)
	used := 1 // bitmask
	var plen int32
	radix := n - 1
	for k := 0; k < t.PrefixDepth-1; k++ {
		sel := idx % radix
		idx /= radix
		// sel-th unused city (excluding 0).
		city := -1
		cnt := 0
		for c := 1; c < n; c++ {
			if used&(1<<c) != 0 {
				continue
			}
			if cnt == sel {
				city = c
				break
			}
			cnt++
		}
		if city < 0 {
			return nil, 0, false
		}
		plen += d[prefix[len(prefix)-1]][city]
		prefix = append(prefix, city)
		used |= 1 << city
		radix--
	}
	return prefix, plen, true
}

// solve runs depth-first branch and bound from the prefix, returning the
// best complete-tour length found under the given bound. path has capacity
// for Cities entries, so every append below lands in its one backing array,
// siblings overwriting the same tail — a child's slice is dead on return.
func (t *TSP) solve(d [][]int32, path []int, visited int, plen, bound int32, nodes *int) int32 {
	*nodes++
	n := t.Cities
	if len(path) == n {
		total := plen + d[path[len(path)-1]][0]
		if total < bound {
			return total
		}
		return bound
	}
	last := path[len(path)-1]
	for c := 1; c < n; c++ {
		if visited&(1<<c) != 0 {
			continue
		}
		nl := plen + d[last][c]
		if nl >= bound {
			*nodes++
			continue
		}
		bound = t.solve(d, append(path, c), visited|1<<c, nl, bound, nodes)
	}
	return bound
}

// Sequential returns the optimal tour length.
func (t *TSP) Sequential() int32 {
	d := t.dist()
	nodes := 0
	return t.solve(d, make([]int, 1, t.Cities), 1, 0, math.MaxInt32, &nodes)
}

// Verify implements App.
func (t *TSP) Verify(tp *tmk.Proc) error {
	want := t.Sequential()
	got := tp.ReadI32(tp.RegionByID(0), tspSlotBest)
	if got != want {
		return fmt.Errorf("tsp: best tour = %d, want %d", got, want)
	}
	return nil
}
