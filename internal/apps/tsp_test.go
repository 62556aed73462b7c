package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference is TSP's search as it was first written: a [][]int32
// matrix, a path slice the recursion appends to, an int bitmask of the
// visited cities and a node counter behind a pointer. The kernel
// (distances.search) must reproduce it exactly — the same best tour and
// the same node count for every (prefix, bound) — because a work unit's
// virtual cost is its node count times CostPerNode.

// refMatrix builds TSP's distance matrix the way the reference did.
func refMatrix(t *TSP) [][]int32 {
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

// refPrefix decodes work unit idx into a concrete tour prefix starting at
// city 0 and its path length, with room for refSolve to extend it in place.
func refPrefix(d [][]int32, depth, idx int) ([]int, int32) {
	n := len(d)
	prefix := make([]int, 1, n)
	used := 1
	var plen int32
	radix := n - 1
	for k := 0; k < depth-1; k++ {
		sel := idx % radix
		idx /= radix
		city, cnt := -1, 0
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
		plen += d[prefix[len(prefix)-1]][city]
		prefix = append(prefix, city)
		used |= 1 << city
		radix--
	}
	return prefix, plen
}

// refSolve runs depth-first branch and bound from the prefix path,
// returning the best complete-tour length found under bound.
func refSolve(d [][]int32, path []int, visited int, plen, bound int32, nodes *int) int32 {
	*nodes++
	n := len(d)
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
		bound = refSolve(d, append(path, c), visited|1<<c, nl, bound, nodes)
	}
	return bound
}

// refSearch runs the reference from a prefix and returns (best, nodes).
func refSearch(d [][]int32, prefix []int, plen, bound int32) (int32, int) {
	visited := 0
	for _, c := range prefix {
		visited |= 1 << c
	}
	nodes := 0
	best := refSolve(d, prefix, visited, plen, bound, &nodes)
	return best, nodes
}

// flatten turns a matrix into the kernel's table.
func flatten(m [][]int32) distances {
	n := len(m)
	d := distances{n: n, d: make([]int32, 0, n*n)}
	for _, row := range m {
		d.d = append(d.d, row...)
	}
	return d
}

// compareUnit checks the kernel against the reference on one prefix under
// one bound.
func compareUnit(t *testing.T, name string, d distances, m [][]int32, prefix []int, plen, bound int32) {
	t.Helper()
	last, unvisited := 0, allCitiesBut0(d.n)
	for _, c := range prefix[1:] {
		last = c
		unvisited &^= 1 << c
	}
	wantBest, wantNodes := refSearch(m, prefix, plen, bound)
	gotBest, gotNodes := d.search(last, unvisited, plen, bound)
	if gotBest != wantBest || gotNodes != wantNodes {
		t.Fatalf("%s prefix %v bound %d: kernel (best %d, nodes %d), reference (best %d, nodes %d)",
			name, prefix, bound, gotBest, gotNodes, wantBest, wantNodes)
	}
}

// TestTSPKernelMatchesReference runs every work unit of the application's
// own instances at 10–13 cities (PrefixDepth 3) through the kernel and the
// reference under four bounds: none, the optimum, one above it, and the
// prefix's own length (every child pruned at once). Best and node count
// must be identical on each, and prefixByIndex must name the reference's
// prefix.
func TestTSPKernelMatchesReference(t *testing.T) {
	for cities := 10; cities <= 13; cities++ {
		if testing.Short() && cities > 11 {
			break
		}
		app := &TSP{Cities: cities, PrefixDepth: 3}
		t.Run(fmt.Sprintf("%d cities", cities), func(t *testing.T) {
			m, d := refMatrix(app), app.distances()
			if !slices.Equal(flatten(m).d, d.d) {
				t.Fatal("distance table differs from the reference matrix")
			}
			opt, _ := refSearch(m, make([]int, 1, cities), 0, math.MaxInt32)
			if got, err := app.Sequential(); err != nil || got != opt {
				t.Fatalf("Sequential = %d, %v; reference optimum %d", got, err, opt)
			}
			for idx := 0; idx < app.prefixCount(); idx++ {
				prefix, plen := refPrefix(m, app.PrefixDepth, idx)
				last, unvisited, gotLen := app.prefixByIndex(d, idx)
				wantUnvisited := allCitiesBut0(cities)
				for _, c := range prefix {
					wantUnvisited &^= 1 << c
				}
				if last != prefix[len(prefix)-1] || unvisited != wantUnvisited || gotLen != plen {
					t.Fatalf("unit %d: prefixByIndex = (%d, %#x, %d), reference prefix %v length %d",
						idx, last, unvisited, gotLen, prefix, plen)
				}
				for _, bound := range []int32{math.MaxInt32, opt, opt + 1, plen} {
					compareUnit(t, fmt.Sprintf("unit %d", idx), d, m, prefix, plen, bound)
				}
			}
		})
	}
}

// TestTSPKernelMatchesReferenceRandom is the seeded property: on random,
// possibly asymmetric distance matrices of up to 14 cities, any prefix
// under any bound gives the kernel and the reference the same best and
// the same node count, and Sequential's Held–Karp table gives the
// reference's optimum over whole tours.
func TestTSPKernelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for i := 0; i < cases; i++ {
		n := 2 + rng.Intn(13)
		m := make([][]int32, n)
		for a := range m {
			m[a] = make([]int32, n)
			for b := range m[a] {
				if a != b {
					m[a][b] = int32(rng.Intn(1000))
				}
			}
		}
		// Leave at most 10 cities to search, so the reference stays quick.
		depth := 1 + rng.Intn(n)
		if depth < n-10 {
			depth = n - 10
		}
		prefix := make([]int, 1, n)
		var plen int32
		for _, p := range rng.Perm(n - 1)[:depth-1] {
			plen += m[prefix[len(prefix)-1]][p+1]
			prefix = append(prefix, p+1)
		}
		if n <= 11 { // the reference's whole search: at most 10 cities after city 0
			if full, _ := refSearch(m, make([]int, 1, n), 0, math.MaxInt32); flatten(m).heldKarp() != full {
				t.Fatalf("case %d (%d cities): Held–Karp optimum %d, reference %d", i, n, flatten(m).heldKarp(), full)
			}
		}
		opt, _ := refSearch(m, prefix, plen, math.MaxInt32)
		bounds := []int32{math.MaxInt32, opt, opt + 1, plen, plen + int32(rng.Intn(int(opt-plen)+1))}
		for _, bound := range bounds {
			compareUnit(t, fmt.Sprintf("case %d (%d cities)", i, n), flatten(m), m, prefix, plen, bound)
		}
	}
}

// BenchmarkTSPSearch times the full search of a 12-city instance from city
// 0 with no bound, by the kernel and by the reference.
func BenchmarkTSPSearch(b *testing.B) {
	app := &TSP{Cities: 12}
	m, d := refMatrix(app), app.distances()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.search(0, allCitiesBut0(app.Cities), 0, math.MaxInt32)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refSearch(m, make([]int, 1, app.Cities), 0, math.MaxInt32)
		}
	})
}
