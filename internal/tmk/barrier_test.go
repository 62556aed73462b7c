package tmk_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestBarrierManagerEncodesWhileWaiting pins where a parent's interval
// closes: on its arrival at the barrier, before it waits for its children,
// as every leaf's does. The parent spends its phase dirtying P ∈ {1, 64}
// pages (64 write faults take under 2 ms), the other ranks compute 1 ms and
// rank 3 computes 2 ms longer, so the parent's P diffs are encoded while it
// waits and the straggler's exit from the barrier does not pay for them.
// What P still adds to that exit is the 63 extra write notices the arrive
// and release messages carry, a few µs; a parent that encoded after the
// last arrival would add 63 diff scans (≈ 645 µs), so the bound is one scan.
func TestBarrierManagerEncodesWhileWaiting(t *testing.T) {
	const pages = 64
	for _, tc := range []struct {
		name    string
		fanout  int
		encoder int // the parent that dirties the pages; rank 3 is in its subtree
	}{
		{"flat", 0, 0},
		{"tree", 2, 1}, // fanout 2: rank 1 is rank 3's parent
	} {
		t.Run(tc.name, func(t *testing.T) {
			exit := func(dirty int) sim.Time {
				cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
				cfg.BarrierFanout = tc.fanout
				var out sim.Time
				_, err := tmk.Run(cfg, func(tp *tmk.Proc) {
					r := tp.AllocShared(pages * tmk.PageSize)
					tp.Barrier(1)
					switch tp.Rank() {
					case tc.encoder: // its write faults are its work
						for pg := 0; pg < dirty; pg++ {
							tp.WriteF64(r, pg*tmk.PageSize/8, float64(pg+1))
						}
					case 3:
						tp.Compute(3 * sim.Millisecond)
					default:
						tp.Compute(sim.Millisecond)
					}
					tp.Barrier(2)
					if tp.Rank() == 3 {
						out = tp.Now()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			scan := sim.BytesTime(2*tmk.PageSize, tmk.DiffScanBandwidth)
			one, many := exit(1), exit(pages)
			if many-one >= scan {
				t.Errorf("rank 3 leaves the barrier at %v with 1 dirty page at rank %d, at %v with %d "+
					"(one diff scan is %v): the parent's encoding is on the straggler's path",
					one, tc.encoder, many, pages, scan)
			}
			t.Logf("rank 3 exits at %v (1 page) and %v (%d pages)", one, many, pages)
		})
	}
}
