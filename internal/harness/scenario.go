package harness

import (
	"fmt"

	"repro/internal/tmk"
)

// ScenarioNames lists the scenarios: small DSM programs whose protocol
// trace (`tmkrun -scenario NAME`) is short enough to read whole.
var ScenarioNames = []string{"counter", "sharing", "lockchain"}

// ScenarioNodes is the cluster size a scenario runs at unless told otherwise.
const ScenarioNodes = 4

// RunScenario executes the named scenario on n processes over the given
// transport; mutate (optional) tweaks the configuration first.
func RunScenario(name string, n int, kind tmk.TransportKind, mutate func(*tmk.Config)) (*tmk.Result, error) {
	var body func(tp *tmk.Proc)
	switch name {
	case "counter": // every rank increments one word twice under one lock
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(8)
			tp.Barrier(1)
			for k := 0; k < 2; k++ {
				tp.LockAcquire(0)
				tp.WriteF64(r, 0, tp.ReadF64(r, 0)+1)
				tp.LockRelease(0)
			}
			tp.Barrier(2)
		}
	case "sharing": // every rank writes interleaved words of one page
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(tmk.PageSize)
			slots := tmk.PageSize / 8
			for i := tp.Rank(); i < slots; i += tp.NProcs() {
				tp.WriteF64(r, i, float64(i))
			}
			tp.Barrier(1)
			tp.ReadF64(r, 0)
			tp.Barrier(2)
		}
	case "lockchain": // each rank takes the lock in turn
		body = func(tp *tmk.Proc) {
			r := tp.AllocShared(8)
			tp.Barrier(1)
			for turn := 0; turn < tp.NProcs(); turn++ {
				if turn == tp.Rank() {
					tp.LockAcquire(1)
					tp.WriteF64(r, 0, float64(turn))
					tp.LockRelease(1)
				}
				tp.Barrier(int32(10 + turn))
			}
		}
	default:
		return nil, fmt.Errorf("harness: unknown scenario %q (want one of %v)", name, ScenarioNames)
	}
	cfg := tmk.DefaultConfig(n, kind)
	if mutate != nil {
		mutate(&cfg)
	}
	return tmk.Run(cfg, body)
}
