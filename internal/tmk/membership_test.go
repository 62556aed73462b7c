package tmk_test

import (
	"testing"

	"repro/internal/tmk"
)

var allTransports = []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM, tmk.TransportRDMAGM}

// churnSlots sizes the shared region at 16 pages so a joining extra's
// ring arc deterministically captures several page homes under HLRC.
const churnSlots = 8192

// churnApp is the membership workload: slots 0..7 are lock-protected
// counters (every rank bumps counter id under lock id each phase, so the
// token and the manager role are both exercised across every placement
// change), the rest of the region takes striped writes touching every
// page, and each phase ends in a barrier — the membership fence points.
// Barrier crossings: the allocation barrier is crossing 1, phase ph's
// barrier is crossing 1+ph.
func churnApp(phases int) func(tp *tmk.Proc) {
	return func(tp *tmk.Proc) {
		n := tp.NProcs()
		r := tp.AllocShared(8 * churnSlots)
		if tp.Rank() == 0 {
			for i := 0; i < churnSlots; i++ {
				tp.WriteF64(r, i, 1)
			}
		}
		tp.Barrier(1)
		for ph := 1; ph <= phases; ph++ {
			for id := int32(0); id < 8; id++ {
				tp.LockAcquire(id)
				v := tp.ReadF64(r, int(id))
				tp.WriteF64(r, int(id), v+1)
				tp.LockRelease(id)
			}
			for i := tp.Rank() + 64; i < churnSlots; i += n {
				tp.WriteF64(r, i, tp.ReadF64(r, i)*2+float64(ph))
			}
			tp.Barrier(int32(10 + ph))
		}
	}
}

// verifyChurnApp checks the final shared state at rank 0: each lock
// counter saw one increment per rank per phase, each striped slot was
// folded once per phase.
func verifyChurnApp(t *testing.T, tp *tmk.Proc, n, phases int) {
	t.Helper()
	r := tp.RegionByID(0)
	for id := 0; id < 8; id++ {
		want := 1 + float64(n*phases)
		if got := tp.ReadF64(r, id); got != want {
			t.Errorf("lock counter %d = %v, want %v", id, got, want)
			return
		}
	}
	want := 1.0
	for ph := 1; ph <= phases; ph++ {
		want = want*2 + float64(ph)
	}
	for i := 64; i < churnSlots; i++ {
		if got := tp.ReadF64(r, i); got != want {
			t.Errorf("slot %d = %v, want %v", i, got, want)
			return
		}
	}
}

// TestJoinMidBarrier admits a standby extra at a barrier fence on every
// transport and requires the run to stay bit-correct while the joiner
// captures a bounded slice of the ring (its handoffs are counted, and no
// crash machinery fires).
func TestJoinMidBarrier(t *testing.T) {
	const phases = 4
	for _, kind := range allTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Membership = tmk.MemberConfig{
				Extra: 1,
				Schedule: []tmk.ChurnEvent{
					{AtBarrier: 2, Kind: "join", Rank: 4},
				},
			}
			app := churnApp(phases)
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				app(tp)
				if tp.Rank() == 0 {
					verifyChurnApp(t, tp, 4, phases)
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Crash != nil {
				t.Fatalf("join triggered crash machinery: %s", res.Crash)
			}
			m := res.Member
			if m == nil {
				t.Fatal("no membership report")
			}
			if res.Stats.MemberJoins != 1 || m.Epoch != 1 {
				t.Errorf("joins=%d epoch=%d, want 1/1", res.Stats.MemberJoins, m.Epoch)
			}
			if m.InRing&(1<<4) == 0 {
				t.Errorf("extra 4 not in ring: %b", m.InRing)
			}
			if moved := res.Stats.MemberHandoffLocks + res.Stats.MemberHandoffPages; moved == 0 {
				t.Error("join captured nothing (degenerate ring arc)")
			}
		})
	}
}

// TestLeaveWhileHoldingLockToken removes a compute rank from the ring at
// a fence while it holds a lock token for a lock it also manages. The
// manager role must move (with the recorded chain tail pointing back at
// the leaver, who keeps the token), and subsequent acquires through the
// new manager must stay correct on every transport.
func TestLeaveWhileHoldingLockToken(t *testing.T) {
	for _, kind := range allTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Membership = tmk.MemberConfig{
				Schedule: []tmk.ChurnEvent{
					{AtBarrier: 2, Kind: "leave", Rank: 1},
				},
			}
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				r := tp.AllocShared(64)
				tp.Barrier(1)
				if tp.Rank() == 1 {
					// Lock 5's static manager is rank 1 (5 mod 4): a purely
					// local acquire leaves the token parked right here when
					// the fence hands the manager role away.
					tp.LockAcquire(5)
					tp.WriteF64(r, 0, 1)
					tp.LockRelease(5)
				}
				tp.Barrier(2) // fence: rank 1 leaves the ring, token in hand
				for k := 0; k < 3; k++ {
					tp.LockAcquire(5)
					v := tp.ReadF64(r, 0)
					tp.WriteF64(r, 0, v+1)
					tp.LockRelease(5)
				}
				tp.Barrier(3)
				if tp.Rank() == 0 {
					if got, want := tp.ReadF64(r, 0), 13.0; got != want {
						t.Errorf("counter = %v, want %v", got, want)
					}
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Stats.MemberLeaves != 1 {
				t.Errorf("leaves = %d, want 1", res.Stats.MemberLeaves)
			}
			if res.Stats.MemberHandoffLocks == 0 {
				t.Error("leaver's lock manager role did not move")
			}
			m := res.Member
			if m == nil || m.InRing&(1<<1) != 0 {
				t.Errorf("rank 1 still in ring: %+v", m)
			}
			if m != nil && m.Live&(1<<1) == 0 {
				t.Error("compute leaver must stay live")
			}
		})
	}
}

// TestCrashOfJoinedExtra joins two extras, then crashes one of them at a
// later fence, on every transport. The run must continue (partial
// recovery, no generation restart), re-placing only the
// dead rank's entities; under HLRC (rdmagm) the dead rank is a page home
// and its pages are rebuilt from surviving writers' diffs.
func TestCrashOfJoinedExtra(t *testing.T) {
	const phases = 5
	for _, kind := range allTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Membership = tmk.MemberConfig{
				Extra: 2,
				Schedule: []tmk.ChurnEvent{
					{AtBarrier: 2, Kind: "join", Rank: 4},
					{AtBarrier: 3, Kind: "join", Rank: 5},
					{AtBarrier: 4, Kind: "crash", Rank: 4},
				},
			}
			app := churnApp(phases)
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				app(tp)
				if tp.Rank() == 0 {
					verifyChurnApp(t, tp, 4, phases)
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Crash != nil {
				t.Fatalf("partial recovery escalated to generation recovery: %s", res.Crash)
			}
			st := &res.Stats
			if st.MemberJoins != 2 || st.MemberCrashes != 1 || st.MemberPartialRecoveries != 1 {
				t.Errorf("joins=%d crashes=%d recoveries=%d, want 2/1/1",
					st.MemberJoins, st.MemberCrashes, st.MemberPartialRecoveries)
			}
			m := res.Member
			if m == nil {
				t.Fatal("no membership report")
			}
			if m.Live&(1<<4) != 0 || m.InRing&(1<<4) != 0 {
				t.Errorf("dead extra 4 still live/in-ring: live=%b ring=%b", m.Live, m.InRing)
			}
			if m.Live&(1<<5) == 0 || m.InRing&(1<<5) == 0 {
				t.Errorf("survivor extra 5 lost: live=%b ring=%b", m.Live, m.InRing)
			}
			if m.Epoch != 3 {
				t.Errorf("epoch = %d, want 3", m.Epoch)
			}
			if kind == tmk.TransportRDMAGM {
				if st.MemberHandoffPages == 0 {
					t.Error("no page homes moved under HLRC churn")
				}
				if st.MemberDiffsReplayed == 0 {
					t.Error("crash rebuilt no pages from surviving diffs")
				}
			}
		})
	}
}

// TestRestartReplaysChurn: a compute rank dies after every scheduled fence
// has run — two extras joined, one of them crashed — and the run restarts.
// The restarted generation replays the schedule from its first fence on
// membership state reset with the rest of the run, so it verifies and ends
// with exactly the membership an uncrashed run ends with.
func TestRestartReplaysChurn(t *testing.T) {
	const phases = 5
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			run := func(cc tmk.CrashConfig) *tmk.Result {
				cfg := tmk.DefaultConfig(4, kind)
				cfg.Crash = cc
				cfg.Membership = tmk.MemberConfig{
					Extra: 2,
					Schedule: []tmk.ChurnEvent{
						{AtBarrier: 2, Kind: "join", Rank: 4},
						{AtBarrier: 3, Kind: "join", Rank: 5},
						{AtBarrier: 4, Kind: "crash", Rank: 4},
					},
				}
				app := churnApp(phases)
				res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
					app(tp)
					if tp.Rank() == 0 {
						verifyChurnApp(t, tp, 4, phases)
					}
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return res
			}
			clean := run(tmk.CrashConfig{})
			restarted := run(tmk.CrashConfig{Rank: 1, AtBarrier: 5, Restart: true})
			if rep := restarted.Crash; rep == nil || rep.Action != "restart" {
				t.Fatalf("report: %v, want a restart", rep)
			}
			if *restarted.Member != *clean.Member {
				t.Errorf("restarted run ends with membership %+v, the uncrashed run with %+v", *restarted.Member, *clean.Member)
			}
		})
	}
}

// TestLeaveOfJoinedExtra joins two extras and has the first leave again,
// on every transport. The leaver's entities are handed off from its
// still-reachable memory, then it is killed and forgotten — so the final
// report must show it neither in the ring nor live, like a crashed extra,
// and the run must stay bit-correct through the departure.
func TestLeaveOfJoinedExtra(t *testing.T) {
	const phases = 5
	for _, kind := range allTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Membership = tmk.MemberConfig{
				Extra: 2,
				Schedule: []tmk.ChurnEvent{
					{AtBarrier: 2, Kind: "join", Rank: 4},
					{AtBarrier: 3, Kind: "join", Rank: 5},
					{AtBarrier: 4, Kind: "leave", Rank: 4},
				},
			}
			app := churnApp(phases)
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				app(tp)
				if tp.Rank() == 0 {
					verifyChurnApp(t, tp, 4, phases)
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Crash != nil {
				t.Fatalf("leave triggered crash machinery: %s", res.Crash)
			}
			if st := &res.Stats; st.MemberJoins != 2 || st.MemberLeaves != 1 || st.MemberCrashes != 0 {
				t.Errorf("joins=%d leaves=%d crashes=%d, want 2/1/0", st.MemberJoins, st.MemberLeaves, st.MemberCrashes)
			}
			m := res.Member
			if m == nil {
				t.Fatal("no membership report")
			}
			if m.Live != 0b101111 || m.InRing != 0b101111 {
				t.Errorf("live=%06b ring=%06b, want 101111/101111", m.Live, m.InRing)
			}
		})
	}
}

// TestChurnDeterministic runs the full churn scenario twice and requires
// byte-identical outcomes — churn transitions are part of the
// deterministic simulation, not a source of nondeterminism.
func TestChurnDeterministic(t *testing.T) {
	run := func() *tmk.Result {
		cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
		cfg.Membership = tmk.MemberConfig{
			Extra: 2,
			Schedule: []tmk.ChurnEvent{
				{AtBarrier: 2, Kind: "join", Rank: 4},
				{AtBarrier: 3, Kind: "join", Rank: 5},
				{AtBarrier: 4, Kind: "crash", Rank: 4},
			},
		}
		res, err := tmk.Run(cfg, churnApp(5))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.Stats != b.Stats || a.Transport != b.Transport {
		t.Fatalf("churn not deterministic:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for i := range a.PerProc {
		if a.PerProc[i] != b.PerProc[i] {
			t.Fatalf("rank %d time %v != %v", i, a.PerProc[i], b.PerProc[i])
		}
	}
}

// TestStandbyExtrasInert spawns extras that never join: they must not
// perturb correctness, the final report must show them live but outside
// the ring at epoch 0, and membership arms no failure detector — nothing
// can die here, so no heartbeat flows.
func TestStandbyExtrasInert(t *testing.T) {
	const phases = 3
	cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
	cfg.Membership = tmk.MemberConfig{Extra: 2}
	app := churnApp(phases)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		app(tp)
		if tp.Rank() == 0 {
			verifyChurnApp(t, tp, 4, phases)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := res.Member
	if m == nil || m.Epoch != 0 || m.Moves != 0 {
		t.Fatalf("standby extras moved state: %+v", m)
	}
	if m.Live != 0b111111 || m.InRing != 0b001111 {
		t.Errorf("live=%b ring=%b, want 111111/001111", m.Live, m.InRing)
	}
	if res.Transport.HeartbeatsSent != 0 {
		t.Errorf("membership sent %d heartbeats, want none (no crash trigger)", res.Transport.HeartbeatsSent)
	}
}

// TestComputeLeaveKeepsPageHomes: under HLRC page homes move only onto
// joined extras. A compute rank that leaves a ring with none sheds its lock
// managers and keeps its homes — it is still running, its window still
// serves them — instead of failing the fence.
func TestComputeLeaveKeepsPageHomes(t *testing.T) {
	const phases = 3
	cfg := tmk.DefaultConfig(4, tmk.TransportRDMAGM)
	cfg.Membership.Schedule = []tmk.ChurnEvent{{AtBarrier: 2, Kind: "leave", Rank: 1}}
	app := churnApp(phases)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		app(tp)
		if tp.Rank() == 0 {
			verifyChurnApp(t, tp, 4, phases)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st := res.Stats; st.MemberLeaves != 1 || st.MemberHandoffLocks == 0 || st.MemberHandoffPages != 0 {
		t.Errorf("leaves=%d lock handoffs=%d page handoffs=%d, want 1 / >0 / 0",
			st.MemberLeaves, st.MemberHandoffLocks, st.MemberHandoffPages)
	}
}
