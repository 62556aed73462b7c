// 3D-FFT example: the paper's most communication-intensive application
// (all-to-all transpose through shared memory). Shows the execution-time
// gap between transports, and the effect of the FAST/GM rendezvous
// protocol on pinned memory.
package main

import (
	"fmt"
	"log"

	treadmarks "repro"
	"repro/internal/apps"
	"repro/internal/sim"
)

func main() {
	app := &apps.FFT3D{Z: 16, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond}
	fmt.Printf("3D FFT %s on 8 nodes\n", app.Size())

	for _, kind := range []treadmarks.TransportKind{treadmarks.UDPGM, treadmarks.FastGM} {
		cfg := treadmarks.DefaultConfig(8, kind)
		res, err := treadmarks.Run(cfg, app.Run)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s exec=%v zero-fills=%d diff-requests=%d diffs-applied=%d bytes=%0.1fMB\n",
			kind, res.ExecTime, res.Stats.ZeroFills, res.Stats.DiffRequestsSent, res.Stats.DiffsApplied,
			float64(res.Transport.BytesSent)/1e6)
	}

	// Rendezvous trades an extra control round trip for pinned memory.
	for _, rv := range []bool{false, true} {
		cfg := treadmarks.DefaultConfig(8, treadmarks.FastGM)
		cfg.Rendezvous = rv
		res, err := treadmarks.Run(cfg, app.Run)
		if err != nil {
			log.Fatal(err)
		}
		mode := "prepost-all"
		if rv {
			mode = "rendezvous"
		}
		fmt.Printf("fastgm/%-12s exec=%v maxPinned=%.2fMB rts=%d\n",
			mode, res.ExecTime, float64(res.MaxPinnedBytes)/1e6, res.Transport.RendezvousRTS)
	}
}
