// Package ubench implements the four microbenchmarks of the TreadMarks
// distribution used in the paper's Figure 3: Barrier, Lock (direct and
// indirect), Page, and Diff (small and large). Each returns the mean
// virtual time per operation on a chosen transport.
package ubench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// Result is one microbenchmark measurement.
type Result struct {
	Name  string
	Case  string
	Nodes int
	Ops   int
	Per   sim.Time // mean time per operation
}

func (r Result) String() string {
	c := r.Case
	if c != "" {
		c = " (" + c + ")"
	}
	return fmt.Sprintf("%s%s x%d: %v/op", r.Name, c, r.Nodes, r.Per)
}

// run executes body on a fresh cluster and returns it.
func run(cfg tmk.Config, body func(tp *tmk.Proc)) error {
	_, err := tmk.Run(cfg, body)
	return err
}

// Barrier measures the time to complete a barrier across all nodes
// (Figure 3, "Barrier (x)").
func Barrier(cfg tmk.Config, reps int) (Result, error) {
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		tp.Barrier(1) // warm-up aligns everyone
		start := tp.Now()
		for i := 0; i < reps; i++ {
			tp.Barrier(int32(10 + i))
		}
		if tp.Rank() == 0 {
			total = tp.Now() - start
		}
	})
	return Result{Name: "Barrier", Nodes: cfg.Procs, Ops: reps, Per: total / sim.Time(reps)}, err
}

// LockDirect measures acquiring a lock that was last acquired and
// released by its manager node (2 messages).
func LockDirect(cfg tmk.Config, reps int) (Result, error) {
	if cfg.Procs < 2 {
		return Result{}, fmt.Errorf("ubench: lock-direct needs ≥ 2 procs")
	}
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		// Lock 0's manager is rank 0.
		for i := 0; i < reps; i++ {
			if tp.Rank() == 0 {
				tp.LockAcquire(0)
				tp.LockRelease(0)
			}
			tp.Barrier(int32(10 + 2*i))
			if tp.Rank() == 1 {
				start := tp.Now()
				tp.LockAcquire(0)
				total += tp.Now() - start
				tp.LockRelease(0)
			}
			tp.Barrier(int32(11 + 2*i))
		}
	})
	return Result{Name: "Lock", Case: "direct", Nodes: cfg.Procs, Ops: reps, Per: total / sim.Time(reps)}, err
}

// LockIndirect measures acquiring a lock last held by a third node: the
// manager forwards the request (3 messages).
func LockIndirect(cfg tmk.Config, reps int) (Result, error) {
	if cfg.Procs < 3 {
		return Result{}, fmt.Errorf("ubench: lock-indirect needs ≥ 3 procs")
	}
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		for i := 0; i < reps; i++ {
			if tp.Rank() == 2 {
				tp.LockAcquire(0)
				tp.LockRelease(0)
			}
			tp.Barrier(int32(10 + 2*i))
			if tp.Rank() == 1 {
				start := tp.Now()
				tp.LockAcquire(0)
				total += tp.Now() - start
				tp.LockRelease(0)
			}
			tp.Barrier(int32(11 + 2*i))
		}
	})
	return Result{Name: "Lock", Case: "indirect", Nodes: cfg.Procs, Ops: reps, Per: total / sim.Time(reps)}, err
}

// Page measures fetching whole pages: process 0 creates and initializes
// a multi-page region (Tmk_malloc + Tmk_distribute), writing every word of
// every page, then process 1 reads one word from each page — each read
// faults in a full page of process 0's data. Homeless, that page arrives as
// one dense 4 KB diff applied to zeros (process 1 holds the page's whole
// write-notice history); home-based, as the home's copy.
func Page(cfg tmk.Config, pages int) (Result, error) {
	if cfg.Procs < 2 {
		return Result{}, fmt.Errorf("ubench: page needs ≥ 2 procs")
	}
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		r := tp.AllocShared(pages * tmk.PageSize)
		if tp.Rank() == 0 {
			row := make([]float64, tmk.PageSize/8)
			for pg := 0; pg < pages; pg++ {
				for w := range row {
					row[w] = float64(pg*len(row) + w + 1)
				}
				tp.WriteF64Span(r, pg*len(row), row)
			}
		}
		tp.Barrier(1)
		if tp.Rank() == 1 {
			start := tp.Now()
			for pg := 0; pg < pages; pg++ {
				tp.ReadF64(r, pg*tmk.PageSize/8)
			}
			total = tp.Now() - start
		}
		tp.Barrier(2)
	})
	return Result{Name: "Page", Nodes: cfg.Procs, Ops: pages, Per: total / sim.Time(pages)}, err
}

// Diff measures diff fetch and application. Small: one word per page is
// written by process 1 and read by process 0. Large: every word of each
// page is written and read.
func Diff(cfg tmk.Config, pages int, large bool) (Result, error) {
	if cfg.Procs < 2 {
		return Result{}, fmt.Errorf("ubench: diff needs ≥ 2 procs")
	}
	kase := "small"
	if large {
		kase = "large"
	}
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		r := tp.AllocShared(pages * tmk.PageSize)
		wordsPerPage := tmk.PageSize / 8
		row := make([]float64, wordsPerPage)
		// Both processes touch the pages first so the timed phase
		// measures diffs, not initial page fetches.
		if tp.Rank() <= 1 {
			for pg := 0; pg < pages; pg++ {
				tp.ReadF64(r, pg*wordsPerPage)
			}
		}
		tp.Barrier(1)
		if tp.Rank() == 1 {
			for pg := 0; pg < pages; pg++ {
				if large {
					for w := range row {
						row[w] = float64(pg*wordsPerPage + w)
					}
					tp.WriteF64Span(r, pg*wordsPerPage, row)
				} else {
					tp.WriteF64(r, pg*wordsPerPage, float64(pg))
				}
			}
		}
		tp.Barrier(2)
		if tp.Rank() == 0 {
			start := tp.Now()
			for pg := 0; pg < pages; pg++ {
				if large {
					tp.ReadF64Span(r, pg*wordsPerPage, row)
				} else {
					tp.ReadF64(r, pg*wordsPerPage)
				}
			}
			total = tp.Now() - start
		}
		tp.Barrier(3)
	})
	return Result{Name: "Diff", Case: kase, Nodes: cfg.Procs, Ops: pages, Per: total / sim.Time(pages)}, err
}

// DiffMultiWriter measures the k-writer false-sharing read fault: k
// processes each dirty a disjoint word of every page, so after the
// barrier the reader's fault must gather one diff from every writer —
// the multiple-writer protocol's worst case, and the path the
// scatter-gather substrate API overlaps (max-RTT instead of
// sum-of-RTTs).
func DiffMultiWriter(cfg tmk.Config, pages, writers int) (Result, error) {
	if writers < 1 || cfg.Procs < writers+1 {
		return Result{}, fmt.Errorf("ubench: diff-multiwriter with %d writers needs ≥ %d procs",
			writers, writers+1)
	}
	var total sim.Time
	err := run(cfg, func(tp *tmk.Proc) {
		r := tp.AllocShared(pages * tmk.PageSize)
		wordsPerPage := tmk.PageSize / 8
		// Every participant touches the pages first so the timed phase
		// measures diff gathers only, not initial page fetches.
		if tp.Rank() <= writers {
			for pg := 0; pg < pages; pg++ {
				tp.ReadF64(r, pg*wordsPerPage)
			}
		}
		tp.Barrier(1)
		if w := tp.Rank(); w >= 1 && w <= writers {
			for pg := 0; pg < pages; pg++ {
				tp.WriteF64(r, pg*wordsPerPage+(w-1), float64(pg*writers+w))
			}
		}
		tp.Barrier(2)
		if tp.Rank() == 0 {
			start := tp.Now()
			for pg := 0; pg < pages; pg++ {
				tp.ReadF64(r, pg*wordsPerPage)
			}
			total = tp.Now() - start
		}
		tp.Barrier(3)
	})
	return Result{Name: "DiffMultiWriter", Case: fmt.Sprintf("%d writers", writers),
		Nodes: cfg.Procs, Ops: pages, Per: total / sim.Time(pages)}, err
}
