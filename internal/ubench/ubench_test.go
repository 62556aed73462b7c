package ubench_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

func fastCfg(n int) tmk.Config { return tmk.DefaultConfig(n, tmk.TransportFastGM) }
func udpCfg(n int) tmk.Config  { return tmk.DefaultConfig(n, tmk.TransportUDPGM) }

func TestBarrierScalesWithNodes(t *testing.T) {
	var prev sim.Time
	for _, n := range []int{2, 4, 8} {
		res, err := ubench.Barrier(fastCfg(n), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Per <= 0 {
			t.Fatalf("barrier(%d) = %v", n, res.Per)
		}
		if res.Per < prev {
			t.Errorf("barrier time shrank with more nodes: %d nodes %v < %v", n, res.Per, prev)
		}
		prev = res.Per
	}
}

func TestFigure3FastBeatsUDPEverywhere(t *testing.T) {
	type bench struct {
		name string
		run  func(cfg tmk.Config) (ubench.Result, error)
	}
	benches := []bench{
		{"barrier", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Barrier(cfg, 8) }},
		{"lock-direct", func(cfg tmk.Config) (ubench.Result, error) { return ubench.LockDirect(cfg, 8) }},
		{"lock-indirect", func(cfg tmk.Config) (ubench.Result, error) { return ubench.LockIndirect(cfg, 8) }},
		{"page", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Page(cfg, 32) }},
		{"diff-small", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 16, false) }},
		{"diff-large", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 16, true) }},
	}
	for _, b := range benches {
		b := b
		t.Run(b.name, func(t *testing.T) {
			fast, err := b.run(fastCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			udp, err := b.run(udpCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			if fast.Per >= udp.Per {
				t.Errorf("%s: FAST %v not faster than UDP %v", b.name, fast.Per, udp.Per)
			}
			t.Logf("%s: FAST=%v UDP=%v factor=%.2f", b.name, fast.Per, udp.Per,
				float64(udp.Per)/float64(fast.Per))
		})
	}
}

func TestLockIndirectCostsMoreThanDirect(t *testing.T) {
	direct, err := ubench.LockDirect(fastCfg(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	indirect, err := ubench.LockIndirect(fastCfg(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if indirect.Per <= direct.Per {
		t.Errorf("indirect (%v) not more expensive than direct (%v)", indirect.Per, direct.Per)
	}
}

func TestDiffLargeCostsMoreThanSmall(t *testing.T) {
	small, err := ubench.Diff(fastCfg(2), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ubench.Diff(fastCfg(2), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if large.Per <= small.Per {
		t.Errorf("large diff (%v) not more expensive than small (%v)", large.Per, small.Per)
	}
}

func TestPageFactorNearPaper(t *testing.T) {
	// The paper reports a ≈6.2× Page improvement; we accept a broad band
	// around the shape (4–9×).
	fast, err := ubench.Page(fastCfg(2), 64)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := ubench.Page(udpCfg(2), 64)
	if err != nil {
		t.Fatal(err)
	}
	factor := float64(udp.Per) / float64(fast.Per)
	if factor < 3 || factor > 10 {
		t.Errorf("page factor = %.2f (fast=%v udp=%v), want ≈6", factor, fast.Per, udp.Per)
	}
	t.Logf("page: FAST=%v UDP=%v factor=%.2f", fast.Per, udp.Per, factor)
}

func TestMinimumProcCounts(t *testing.T) {
	if _, err := ubench.LockDirect(fastCfg(1), 1); err == nil {
		t.Error("lock-direct with 1 proc succeeded")
	}
	if _, err := ubench.LockIndirect(fastCfg(2), 1); err == nil {
		t.Error("lock-indirect with 2 procs succeeded")
	}
	if _, err := ubench.Page(fastCfg(1), 1); err == nil {
		t.Error("page with 1 proc succeeded")
	}
	if _, err := ubench.Diff(fastCfg(1), 1, false); err == nil {
		t.Error("diff with 1 proc succeeded")
	}
}

func TestResultString(t *testing.T) {
	r := ubench.Result{Name: "Lock", Case: "direct", Nodes: 4, Ops: 10, Per: sim.Micro(42)}
	if r.String() != "Lock (direct) x4: 42.000µs/op" {
		t.Errorf("String() = %q", r.String())
	}
	r2 := ubench.Result{Name: "Barrier", Nodes: 8, Ops: 10, Per: sim.Micro(100)}
	if r2.String() != "Barrier x8: 100.000µs/op" {
		t.Errorf("String() = %q", r2.String())
	}
}

// TestMicrobenchmarksPrefetchNothing: every page-moving microbenchmark, on
// every substrate, times demand faults only — run fails a run whose
// readahead validated a page (tmk.Stats.Prefetched). The timed reads go
// last page first; ascending, readahead would fetch most of the pages of
// Diff small and DiffMultiWriter ahead of their faults, and the rows would
// measure prefetch, not the paper's one-page fetch.
func TestMicrobenchmarksPrefetchNothing(t *testing.T) {
	benches := []struct {
		name string
		run  func(cfg tmk.Config) (ubench.Result, error)
	}{
		{"page", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Page(cfg, 64) }},
		{"diff-small", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 32, false) }},
		{"diff-large", func(cfg tmk.Config) (ubench.Result, error) { return ubench.Diff(cfg, 32, true) }},
		{"diff-4writers", func(cfg tmk.Config) (ubench.Result, error) { return ubench.DiffMultiWriter(cfg, 16, 4) }},
	}
	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM, tmk.TransportRDMAGM} {
		for _, b := range benches {
			t.Run(string(kind)+"/"+b.name, func(t *testing.T) {
				if _, err := b.run(tmk.DefaultConfig(5, kind)); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
