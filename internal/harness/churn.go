package harness

import (
	"fmt"
	"io"

	"repro/internal/tmk"
)

// Churn sweep: run the paper's four applications on all three substrates
// under a seeded schedule of membership events — standby extras joining
// the ring at barrier fences, a joined extra leaving, another crashing —
// and hold the elastic-membership story (DESIGN.md §14) to its
// invariants:
//
//  1. Correctness: every application verifies bit-exact against its
//     sequential reference, churn or not — the same check the unchurned
//     runs pass, so churned results are bit-identical to unchurned ones.
//  2. Bounded recovery: a single-rank crash is absorbed by partial
//     recovery — only the dead rank's entities are re-placed (counted),
//     with no crash report and no generation restart.
//  3. Execution: the fence epoch equals the number of distinct scheduled
//     crossings, and the executed events match the schedule exactly.
//  4. Determinism: the same churned configuration run twice is
//     byte-identical — churn is part of the simulation, not noise.

// ChurnSpec configures the churn sweep.
type ChurnSpec struct {
	Nodes int
	Extra int // standby ranks beyond Nodes, eligible to join
	Seed  int64

	// Schedule is executed in order at barrier fences; AtBarrier counts
	// barrier crossings from 1, and events sharing a crossing run at one
	// fence in schedule order. TSP is the barrier-poorest chaos app (its
	// work is lock-based), so events must sit at crossings ≤4 to fire in
	// every app.
	Schedule []tmk.ChurnEvent
}

// DefaultChurnSpec returns the standard churn scenario: two standby
// extras join on consecutive fences, one is crashed while the other is
// still in the ring (HLRC page homes are only ever re-placed onto a
// live joined extra, so the crash precedes any ring drain), then a
// compute rank departs the ring — it keeps computing, but its manager
// roles move. The extras are the two ranks after the nodes compute ranks.
func DefaultChurnSpec(nodes int) ChurnSpec {
	return ChurnSpec{
		Nodes: nodes,
		Extra: 2,
		Seed:  1,
		Schedule: []tmk.ChurnEvent{
			{AtBarrier: 2, Kind: "join", Rank: nodes},
			{AtBarrier: 3, Kind: "join", Rank: nodes + 1},
			{AtBarrier: 4, Kind: "crash", Rank: nodes},
			{AtBarrier: 4, Kind: "leave", Rank: 1},
		},
	}
}

// Mutate applies the spec to a run configuration.
func (cs ChurnSpec) Mutate(cfg *tmk.Config) {
	cfg.Seed = cs.Seed
	cfg.Membership = tmk.MemberConfig{
		Extra:    cs.Extra,
		Schedule: append([]tmk.ChurnEvent(nil), cs.Schedule...),
	}
}

// expect derives the event counts and final fence epoch the schedule
// must produce (one epoch per distinct fence crossing).
func (cs ChurnSpec) expect() (joins, leaves, crashes int64, epoch int32) {
	fences := map[int]bool{}
	for _, ev := range cs.Schedule {
		fences[ev.AtBarrier] = true
		switch ev.Kind {
		case "join":
			joins++
		case "leave":
			leaves++
		case "crash":
			crashes++
		}
	}
	return joins, leaves, crashes, int32(len(fences))
}

// Churn runs the sweep and writes a report. It returns an error on the
// first violated invariant.
func Churn(w io.Writer, spec ChurnSpec) error {
	joins, leaves, crashes, epoch := spec.expect()
	fprintf(w, "Churn sweep: %d nodes + %d standby, seed %d, %d events (%d join / %d leave / %d crash)\n\n",
		spec.Nodes, spec.Extra, spec.Seed, len(spec.Schedule), joins, leaves, crashes)
	fprintf(w, "%-8s %-7s %12s %6s %6s %6s %6s %6s %6s %6s %8s %7s %6s %5s\n",
		"app", "tport", "time", "epoch", "joins", "leaves", "crash", "recov", "hlock", "hpage", "hbytes", "replay",
		"parked", "sdrop")

	var hlrcPages, hlrcReplays int64 // what HLRC churn re-placed, over the sweep
	for _, app := range chaosApps() {
		for _, kind := range AllTransports {
			res, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
			if err != nil {
				return fmt.Errorf("churn: %s/%s: %w", app.Name(), kind, err)
			}
			st := &res.Stats
			m := res.Member
			if m == nil {
				return fmt.Errorf("churn: %s/%s: no membership report", app.Name(), kind)
			}
			fprintf(w, "%-8s %-7s %12v %6d %6d %6d %6d %6d %6d %6d %8d %7d %6d %5d\n",
				app.Name(), kind, res.ExecTime, m.Epoch,
				st.MemberJoins, st.MemberLeaves, st.MemberCrashes, st.MemberPartialRecoveries,
				st.MemberHandoffLocks, st.MemberHandoffPages, st.MemberHandoffBytes, st.MemberDiffsReplayed,
				res.ParkedFrames, res.SocketDrops)

			// Invariant 2: the crash stayed a partial recovery.
			if res.Crash != nil {
				return fmt.Errorf("churn: %s/%s: escalated to generation recovery: %s", app.Name(), kind, res.Crash)
			}
			if st.MemberJoins != joins || st.MemberLeaves != leaves || st.MemberCrashes != crashes {
				return fmt.Errorf("churn: %s/%s: events executed %d/%d/%d, schedule says %d/%d/%d",
					app.Name(), kind, st.MemberJoins, st.MemberLeaves, st.MemberCrashes, joins, leaves, crashes)
			}
			if st.MemberPartialRecoveries != crashes {
				return fmt.Errorf("churn: %s/%s: %d partial recoveries for %d crashes",
					app.Name(), kind, st.MemberPartialRecoveries, crashes)
			}
			if kind == tmk.TransportRDMAGM {
				hlrcPages += st.MemberHandoffPages
				hlrcReplays += st.MemberDiffsReplayed
			}
			// Invariant 3: one fence epoch per distinct scheduled crossing.
			if m.Epoch != epoch {
				return fmt.Errorf("churn: %s/%s: fence epoch %d, want %d", app.Name(), kind, m.Epoch, epoch)
			}
		}
	}

	// Under HLRC page homes are ring entities, so a crash must re-place
	// some across the sweep — one app may legitimately hand off none (at 16
	// nodes TSP does), and on the two-sided substrates only lock managers
	// are ring entities. Rebuilding a home from surviving diffs needs the
	// crashed extra to home pages written since it joined: at 2, 4, 6 and
	// 8 compute ranks every app replays some, while at odd sizes and at 16
	// the pages it homes have no diff to replay, so that guard holds only
	// at the even sizes up to 8.
	if crashes > 0 && hlrcPages == 0 {
		return fmt.Errorf("churn: rdmagm: no page homes moved under HLRC churn")
	}
	if crashes > 0 && spec.Nodes <= 8 && spec.Nodes%2 == 0 && hlrcReplays == 0 {
		return fmt.Errorf("churn: rdmagm: crash rebuilt no pages from surviving diffs")
	}

	// Invariant 4: determinism — the same churned configuration twice.
	app := chaosApps()[0]
	for _, kind := range AllTransports {
		a, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
		if err != nil {
			return err
		}
		b, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
		if err != nil {
			return err
		}
		if err := sameResult(a, b); err != nil {
			return fmt.Errorf("churn: %s/%s not deterministic: %w", app.Name(), kind, err)
		}
	}

	fprintf(w, "\nall invariants held: bit-correct results under churn, crashes absorbed by partial\n")
	fprintf(w, "recovery (no generation restart), every scheduled fence executed, deterministic\n")
	return nil
}
