package treadmarks_test

import (
	"testing"

	treadmarks "repro"
)

// TestPublicAPIQuickstart runs the README's quickstart program end to end
// on both transports through the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	for _, kind := range []treadmarks.TransportKind{treadmarks.UDPGM, treadmarks.FastGM} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := treadmarks.DefaultConfig(4, kind)
			var final float64
			res, err := treadmarks.Run(cfg, func(tp *treadmarks.Proc) {
				counter := tp.AllocShared(8)
				tp.Barrier(1)
				tp.LockAcquire(0)
				tp.WriteF64(counter, 0, tp.ReadF64(counter, 0)+1)
				tp.LockRelease(0)
				tp.Barrier(2)
				if tp.Rank() == 0 {
					final = tp.ReadF64(counter, 0)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if final != 4 {
				t.Errorf("counter = %v, want 4", final)
			}
			if res.ExecTime <= 0 {
				t.Error("no virtual time elapsed")
			}
		})
	}
}

// TestFacadeConstants pins the re-exported identifiers.
func TestFacadeConstants(t *testing.T) {
	if treadmarks.PageSize != 4096 {
		t.Errorf("PageSize = %d", treadmarks.PageSize)
	}
	if treadmarks.UDPGM == treadmarks.FastGM {
		t.Error("transport kinds collide")
	}
	cfg := treadmarks.DefaultConfig(2, treadmarks.FastGM)
	if cfg.Procs != 2 || cfg.Transport != treadmarks.FastGM {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	if c := treadmarks.NewCluster(cfg); c == nil {
		t.Error("NewCluster returned nil")
	}
}

// TestFacadeDeterminism: the public entry point inherits the simulator's
// bit-reproducibility.
func TestFacadeDeterminism(t *testing.T) {
	run := func() treadmarks.Time {
		res, err := treadmarks.Run(treadmarks.DefaultConfig(3, treadmarks.FastGM),
			func(tp *treadmarks.Proc) {
				r := tp.AllocShared(1024)
				tp.Barrier(1)
				if tp.Rank() == 0 {
					for i := 0; i < 100; i++ {
						tp.WriteF64(r, i%128, float64(i))
					}
				}
				tp.Barrier(2)
				tp.ReadF64(r, 5)
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}
