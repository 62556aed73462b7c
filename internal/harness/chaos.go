package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Chaos sweep: run the paper's four applications on both transports over
// a deliberately lossy Myrinet — random drop, payload corruption, latency
// spikes, plus one timed blackout of the link into rank 0 — and hold the
// robustness story to its invariants:
//
//  1. Correctness: every application verifies bit-exact against its
//     sequential reference, faults or not.
//  2. Recovery happened: the injected faults were actually hit, and the
//     transport's recovery machinery (GM retransmission + port resume for
//     FAST/GM, the user-level retry timer for UDP/GM) shows activity.
//  3. No residual damage: no GM port is left disabled at the end.
//  4. Identity: with every probability zero the fault layer is pure
//     plumbing — results are bit-identical to a config with no fault
//     layer at all.

// ChaosSpec configures the chaos sweep.
type ChaosSpec struct {
	Nodes int
	Seed  int64

	Drop      float64  // per-packet loss probability
	Corrupt   float64  // per-packet corruption probability
	DelayProb float64  // per-packet latency-spike probability
	DelayMax  sim.Time // spike bound

	// One blackout window on every link into rank 0 (the barrier manager
	// and lock/page home for low IDs) — the highest-leverage outage.
	BlackoutFrom, BlackoutTo sim.Time
}

// DefaultChaosSpec returns the standard lossy-fabric scenario: ≥1% loss,
// mild corruption and jitter, and an early blackout that catches the
// first barrier waves.
func DefaultChaosSpec() ChaosSpec {
	return ChaosSpec{
		Nodes:        4,
		Seed:         1,
		Drop:         0.015,
		Corrupt:      0.005,
		DelayProb:    0.01,
		DelayMax:     2 * sim.Millisecond,
		BlackoutFrom: sim.Millisecond,
		BlackoutTo:   10 * sim.Millisecond,
	}
}

// Faults renders the spec as a fabric fault schedule.
func (cs ChaosSpec) Faults() myrinet.FaultConfig {
	fc := myrinet.FaultConfig{
		Drop:      cs.Drop,
		Corrupt:   cs.Corrupt,
		DelayProb: cs.DelayProb,
		DelayMax:  cs.DelayMax,
	}
	if cs.BlackoutTo > cs.BlackoutFrom {
		fc.Blackouts = []myrinet.Blackout{
			{Src: -1, Dst: 0, From: cs.BlackoutFrom, To: cs.BlackoutTo},
		}
	}
	return fc
}

// Mutate applies the spec to a run configuration.
func (cs ChaosSpec) Mutate(cfg *tmk.Config) {
	cfg.Seed = cs.Seed
	cfg.Faults = cs.Faults()
}

// chaosApps returns small-but-communication-heavy instances of the four
// applications (every class of DSM traffic: barriers, pages, diffs,
// locks, large FFT transposes).
func chaosApps() []apps.App {
	return []apps.App{
		&apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
}

// Chaos runs the sweep and writes a report. It returns an error on the
// first violated invariant (correctness, recovery activity, residual
// disabled ports, or zero-fault identity).
func Chaos(w io.Writer, spec ChaosSpec) error {
	fprintf(w, "Chaos sweep: %d nodes, seed %d, drop %.3f corrupt %.3f delay %.3f/%v, blackout →0 [%v,%v)\n\n",
		spec.Nodes, spec.Seed, spec.Drop, spec.Corrupt, spec.DelayProb, spec.DelayMax,
		spec.BlackoutFrom, spec.BlackoutTo)
	fprintf(w, "%-8s %-7s %12s %7s %5s %6s %6s %7s %7s %5s %6s %5s %5s\n",
		"app", "tport", "time", "drop", "crc", "blkout", "retx", "gmretx", "resumes", "dups",
		"parked", "sdrop", "stale")

	for _, app := range chaosApps() {
		for _, kind := range Transports {
			res, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
			if err != nil {
				return fmt.Errorf("chaos: %s/%s: %w", app.Name(), kind, err)
			}
			nf := res.NetFaults
			fprintf(w, "%-8s %-7s %12v %7d %5d %6d %6d %7d %7d %5d %6d %5d %5d\n",
				app.Name(), kind, res.ExecTime, nf.Dropped, nf.CRCDrops, nf.Blackout,
				res.Transport.Retransmits, res.Transport.GMRetransmits,
				res.Transport.PortResumes, res.Transport.DupRequests,
				res.ParkedFrames, res.SocketDrops, res.Transport.StaleReplies)

			if faultsHit := nf.Dropped + nf.CRCDrops + nf.Blackout; faultsHit == 0 {
				return fmt.Errorf("chaos: %s/%s: fault layer injected nothing (weak scenario)", app.Name(), kind)
			}
			switch kind {
			case tmk.TransportFastGM:
				if res.Transport.GMRetransmits == 0 || res.Transport.PortResumes == 0 {
					return fmt.Errorf("chaos: %s/%s: no GM recovery activity (gmretx=%d resumes=%d)",
						app.Name(), kind, res.Transport.GMRetransmits, res.Transport.PortResumes)
				}
			case tmk.TransportUDPGM:
				if res.Transport.Retransmits == 0 {
					return fmt.Errorf("chaos: %s/%s: no UDP retransmissions despite injected loss", app.Name(), kind)
				}
			}
			if res.DisabledPorts != 0 {
				return fmt.Errorf("chaos: %s/%s: %d GM ports left disabled", app.Name(), kind, res.DisabledPorts)
			}
		}
	}

	// Invariant 4: a zero-probability fault layer is invisible. A
	// zero-width blackout window makes the fault plumbing active (CRC
	// stamping, per-packet gating) while it drops nothing and every
	// probability stays zero — results must still be bit-identical to a
	// config with no fault layer at all.
	app := chaosApps()[0]
	for _, kind := range Transports {
		base, err := RunApp(app, spec.Nodes, kind, func(cfg *tmk.Config) { cfg.Seed = spec.Seed })
		if err != nil {
			return err
		}
		zeroed, err := RunApp(app, spec.Nodes, kind, func(cfg *tmk.Config) {
			cfg.Seed = spec.Seed
			cfg.Faults = myrinet.FaultConfig{Blackouts: []myrinet.Blackout{{Src: -1, Dst: -1}}}
		})
		if err != nil {
			return err
		}
		if err := sameResult(base, zeroed); err != nil {
			return fmt.Errorf("chaos: zero-probability fault config perturbed %s/%s: %w", app.Name(), kind, err)
		}
	}
	fprintf(w, "\nall invariants held: bit-correct results, recovery active, no residual disabled ports,\n")
	fprintf(w, "zero-probability fault layer bit-identical to no fault layer\n")
	return nil
}

// sameResult compares the deterministic fields of two runs.
func sameResult(a, b *tmk.Result) error {
	if a.ExecTime != b.ExecTime {
		return fmt.Errorf("ExecTime %v != %v", a.ExecTime, b.ExecTime)
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("tmk.Stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Transport != b.Transport {
		return fmt.Errorf("substrate.Stats diverged:\n%+v\n%+v", a.Transport, b.Transport)
	}
	for i := range a.PerProc {
		if a.PerProc[i] != b.PerProc[i] {
			return fmt.Errorf("rank %d time %v != %v", i, a.PerProc[i], b.PerProc[i])
		}
	}
	return nil
}
