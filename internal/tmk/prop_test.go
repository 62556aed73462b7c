package tmk_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tmk"
)

// TestRandomProgramsMatchSequential generates random race-free SPMD
// programs — per-phase partitioned writes with rotating ownership,
// interleaved lock-protected read-modify-writes — and checks that the
// DSM execution's final memory image equals a direct sequential model.
// This exercises multi-writer pages, ownership migration, diff chains
// across many intervals, and lock/barrier interleavings far beyond the
// hand-written tests.
func TestRandomProgramsMatchSequential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM} {
			kind := kind
			t.Run(fmt.Sprintf("seed%d_%s", seed, kind), func(t *testing.T) {
				runRandomProgram(t, seed, kind)
			})
		}
	}
}

type phasePlan struct {
	perm   []int   // slot-block → owning rank this phase
	values []int64 // value written per block this phase
}

func runRandomProgram(t *testing.T, seed int64, kind tmk.TransportKind) {
	const (
		n      = 4
		blocks = 16  // ownership granularity
		slots  = 768 // spans two pages; blocks of 48 slots straddle pages
		phases = 6
	)
	rng := rand.New(rand.NewSource(seed))
	plans := make([]phasePlan, phases)
	for p := range plans {
		perm := rng.Perm(blocks)
		vals := make([]int64, blocks)
		for b := range vals {
			vals[b] = rng.Int63n(1 << 40)
		}
		plans[p] = phasePlan{perm: perm, values: vals}
	}
	counterOps := make([][]int, phases) // per phase: ranks doing counter +1
	for p := range counterOps {
		for r := 0; r < n; r++ {
			if rng.Intn(2) == 0 {
				counterOps[p] = append(counterOps[p], r)
			}
		}
	}

	// Sequential model.
	want := make([]int64, slots)
	wantCounter := 0
	per := slots / blocks
	for p := 0; p < phases; p++ {
		for b := 0; b < blocks; b++ {
			for s := b * per; s < (b+1)*per; s++ {
				want[s] = plans[p].values[b] + int64(s)
			}
		}
		wantCounter += len(counterOps[p])
	}

	cfg := tmk.DefaultConfig(n, kind)
	cfg.Seed = seed
	var got []int64
	var gotCounter int64
	_, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		data := tp.AllocShared(slots * 8)
		counter := tp.AllocShared(8)
		tp.Barrier(1)
		for p := 0; p < phases; p++ {
			plan := plans[p]
			for b := 0; b < blocks; b++ {
				if plan.perm[b]%n != tp.Rank() {
					continue
				}
				row := make([]float64, per)
				for i := range row {
					row[i] = float64(plan.values[b] + int64(b*per+i))
				}
				tp.WriteF64Span(data, b*per, row)
			}
			for _, r := range counterOps[p] {
				if r == tp.Rank() {
					tp.LockAcquire(7)
					tp.WriteF64(counter, 0, tp.ReadF64(counter, 0)+1)
					tp.LockRelease(7)
				}
			}
			tp.Barrier(int32(10 + p))
			// Every rank reads a random sample this phase (stresses
			// cross-phase diff accumulation).
			sampleRng := rand.New(rand.NewSource(seed*1000 + int64(p*10+tp.Rank())))
			for k := 0; k < 40; k++ {
				s := sampleRng.Intn(slots)
				b := s / per
				expect := float64(plan.values[b] + int64(s))
				if got := tp.ReadF64(data, s); got != expect {
					t.Errorf("phase %d rank %d: slot %d = %v, want %v", p, tp.Rank(), s, got, expect)
				}
			}
			tp.Barrier(int32(100 + p))
		}
		if tp.Rank() == 0 {
			vals := make([]float64, slots)
			tp.ReadF64Span(data, 0, vals)
			got = make([]int64, slots)
			for i, v := range vals {
				got[i] = int64(v)
			}
			gotCounter = int64(tp.ReadF64(counter, 0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final slot %d = %d, want %d", i, got[i], want[i])
		}
	}
	if gotCounter != int64(wantCounter) {
		t.Errorf("counter = %d, want %d", gotCounter, wantCounter)
	}
}

// TestRandomProgramDeterminism: the same random program twice must give
// identical virtual end times and statistics.
func TestRandomProgramDeterminism(t *testing.T) {
	run := func() string {
		cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
		cfg.Seed = 42
		res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
			r := tp.AllocShared(1024 * 8)
			tp.Barrier(1)
			rng := rand.New(rand.NewSource(int64(tp.Rank())))
			for p := 0; p < 4; p++ {
				for k := 0; k < 20; k++ {
					s := rng.Intn(256)*4 + tp.Rank() // rank-disjoint slots
					tp.WriteF64(r, s, float64(p*1000+s))
				}
				tp.Barrier(int32(10 + p))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%v", res.ExecTime, res.Stats, res.Transport)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic runs:\n%s\n%s", a, b)
	}
}
