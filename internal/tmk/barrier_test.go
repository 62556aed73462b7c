package tmk_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestBarrierManagerEncodesWhileWaiting pins where the manager's interval
// closes: on its arrival at the barrier, before it waits for the clients,
// as every client's does. The manager spends its phase dirtying P ∈ {1, 64}
// pages (64 write faults take under 2 ms), the other ranks compute 1 ms and
// rank 3 computes 2 ms longer, so the manager's P diffs are encoded while it
// waits and the straggler's exit from the barrier does not pay for them.
// What P still adds to that exit is the 63 extra write notices the arrive
// and release messages carry, a few µs; a manager that encoded after the
// last arrival would add 63 diff scans (≈ 645 µs), so the bound is one scan.
func TestBarrierManagerEncodesWhileWaiting(t *testing.T) {
	const pages = 64
	// "flat": every rank arrives at rank 0, the one barrier manager.
	t.Run("flat", func(t *testing.T) {
		exit := func(dirty int) sim.Time {
			var out sim.Time
			_, err := tmk.Run(tmk.DefaultConfig(4, tmk.TransportFastGM), func(tp *tmk.Proc) {
				r := tp.AllocShared(pages * tmk.PageSize)
				tp.Barrier(1)
				switch tp.Rank() {
				case 0: // its write faults are its work
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
			t.Errorf("rank 3 leaves the barrier at %v with 1 dirty page at the manager, at %v with %d "+
				"(one diff scan is %v): the manager's encoding is on the straggler's path",
				one, many, pages, scan)
		}
		t.Logf("rank 3 exits at %v (1 page) and %v (%d pages)", one, many, pages)
	})
}
