package apps

import (
	"fmt"
	"math"
	"math/bits"

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
	Cities      int      // at most 64, the search's uint64 of unvisited cities; Verify's optimum takes at most 20
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

// distances is TSP's flat distance table: d[i*n+j] is the length of the
// edge from city i to city j.
type distances struct {
	n int
	d []int32
}

// distances builds the deterministic symmetric table: cities on a
// synthetic plane, Euclidean distances scaled to integers.
func (t *TSP) distances() distances {
	n := t.Cities
	d := make([]int32, n*n)
	for i := 0; i < n; i++ {
		xi, yi := tspCoord(i)
		for j := 0; j < n; j++ {
			xj, yj := tspCoord(j)
			dx, dy := float64(xi-xj), float64(yi-yj)
			d[i*n+j] = int32(math.Sqrt(dx*dx+dy*dy) + 0.5)
		}
	}
	return distances{n: n, d: d}
}

// tspCoord places city i on the synthetic plane.
func tspCoord(i int) (x, y int64) {
	return int64((i*613 + 127) % 503), int64((i*797 + 281) % 499)
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
	d := t.distances()
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

		last, unvisited, plen := t.prefixByIndex(d, idx)
		// Prune whole prefixes against the (possibly stale) bound.
		bound := tp.ReadI32(shared, tspSlotBest)
		if plen >= bound {
			chargePoints(tp, 1, t.CostPerNode)
			continue
		}
		tourBest, nodes := d.search(last, unvisited, plen, bound)
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

// prefixByIndex decodes work unit idx into the tour prefix it names,
// starting at city 0: the prefix's last city, the mask of cities it has
// not visited yet, and its path length. Each mixed-radix digit sel <
// radix picks the sel-th city still unvisited, and exactly radix remain.
func (t *TSP) prefixByIndex(d distances, idx int) (last int, unvisited uint64, plen int32) {
	unvisited = allCitiesBut0(t.Cities)
	radix := t.Cities - 1
	for k := 0; k < t.PrefixDepth-1; k++ {
		sel := idx % radix
		idx /= radix
		m := unvisited
		for ; sel > 0; sel-- {
			m &= m - 1
		}
		city := bits.TrailingZeros64(m)
		plen += d.d[last*d.n+city]
		last = city
		unvisited &^= 1 << city
		radix--
	}
	return last, unvisited, plen
}

// allCitiesBut0 is the unvisited mask of a tour that has only left city 0.
func allCitiesBut0(n int) uint64 { return (1<<n - 1) &^ 1 }

// search runs depth-first branch and bound from a partial tour that ends
// at city last, has length plen and has still to visit the cities in
// unvisited, then return to city 0. It returns the best complete-tour
// length found under bound (bound itself if none is shorter) and the
// number of search-tree nodes it visited, which is what a work unit is
// charged: this node, each child pruned because its partial length
// reaches the bound, and every node below the children it descends into,
// taken in ascending city order, each under the best bound found so far.
func (d distances) search(last int, unvisited uint64, plen, bound int32) (int32, int) {
	row := d.d[last*d.n : last*d.n+d.n]
	if unvisited == 0 {
		if total := plen + row[0]; total < bound {
			return total, 1
		}
		return bound, 1
	}
	nodes := 1
	for m := unvisited; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		nl := plen + row[c]
		if nl >= bound {
			nodes++
			continue
		}
		var below int
		bound, below = d.search(c, unvisited&^(1<<c), nl, bound)
		nodes += below
	}
	return bound, nodes
}

// tspExactMax is the most cities Sequential solves: its table holds
// (n−1)·2ⁿ⁻¹ path lengths, 40 MB at 20 cities.
const tspExactMax = 20

// Sequential returns the optimal tour length, or an error for more cities
// than tspExactMax.
func (t *TSP) Sequential() (int32, error) {
	if t.Cities < 1 || t.Cities > tspExactMax {
		return 0, fmt.Errorf("tsp: %d cities: the reference optimum is computed for 1 to %d", t.Cities, tspExactMax)
	}
	return t.distances().heldKarp(), nil
}

// heldKarp returns the optimal tour length by the Held–Karp dynamic
// program over subsets, O(n²·2ⁿ) time: it shares no code with the
// branch-and-bound kernel (search) whose answer Verify checks.
func (d distances) heldKarp() int32 {
	n, m := d.n, d.n-1 // cities 1..n−1 are bits 0..m−1 of a subset
	if m == 0 {
		return d.d[0]
	}
	// path[s*m+j]: the shortest path that leaves city 0, visits exactly the
	// cities of subset s and ends at city j+1, a member of s.
	path := make([]int32, (1<<m)*m)
	for s := 1; s < 1<<m; s++ {
		for j := 0; j < m; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			prev := s &^ (1 << j)
			if prev == 0 {
				path[s*m+j] = d.d[j+1]
				continue
			}
			best := int32(math.MaxInt32)
			for k := 0; k < m; k++ {
				if prev&(1<<k) != 0 {
					best = min(best, path[prev*m+k]+d.d[(k+1)*n+j+1])
				}
			}
			path[s*m+j] = best
		}
	}
	all, best := 1<<m-1, int32(math.MaxInt32)
	for j := 0; j < m; j++ {
		best = min(best, path[all*m+j]+d.d[(j+1)*n])
	}
	return best
}

// Verify implements App.
func (t *TSP) Verify(tp *tmk.Proc) error {
	want, err := t.Sequential()
	if err != nil {
		return err
	}
	got := tp.ReadI32(tp.RegionByID(0), tspSlotBest)
	if got != want {
		return fmt.Errorf("tsp: best tour = %d, want %d", got, want)
	}
	return nil
}
