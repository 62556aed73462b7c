package tmk_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/myrinet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

var allTransports = []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM, tmk.TransportRDMAGM}

// epochApp is a small barrier-structured workload shaped like Jacobi:
// rank 0 allocates and seeds a shared vector, then each epoch has every
// rank rewrite its stripe as a function of the epoch number, with a
// barrier per epoch. The final contents depend on every epoch having run
// exactly once on a clean start — a restart that kept any of the dead
// generation's state, or skipped an epoch, produces wrong values.
const epochSlots = 600 // spans two pages

func epochApp(epochs int) func(tp *tmk.Proc) {
	return func(tp *tmk.Proc) {
		n := tp.NProcs()
		r := tp.AllocShared(8 * epochSlots)
		if tp.Rank() == 0 {
			for i := 0; i < epochSlots; i++ {
				tp.WriteF64(r, i, 1)
			}
		}
		tp.Barrier(1)
		for e := 1; e <= epochs; e++ {
			for i := tp.Rank(); i < epochSlots; i += n {
				v := tp.ReadF64(r, i)
				tp.WriteF64(r, i, v*2+float64(e))
			}
			tp.Barrier(int32(10 + e))
		}
	}
}

func epochWant(epochs int) float64 {
	v := 1.0
	for e := 1; e <= epochs; e++ {
		v = v*2 + float64(e)
	}
	return v
}

func verifyEpochApp(t *testing.T, tp *tmk.Proc, epochs int) {
	t.Helper()
	want := epochWant(epochs)
	r := tp.RegionByID(0)
	for i := 0; i < epochSlots; i++ {
		if got := tp.ReadF64(r, i); got != want {
			t.Errorf("slot %d = %v, want %v", i, got, want)
			return
		}
	}
}

// TestCrashRestart kills rank 1 mid-run on every transport and requires
// the restart to finish the computation bit-correct: survivors detect the
// death, the watchdog runs the application again on a second generation,
// and the final shared state equals the crash-free reference. The three
// crash kinds reach the ring and the protocol trace.
func TestCrashRestart(t *testing.T) {
	const epochs = 4
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Crash = tmk.CrashConfig{
				Rank:      1,
				AtBarrier: 3, // the setup barrier and epoch 1's, then dies entering epoch 2's
				Restart:   true,
			}
			tr := trace.New(1 << 20)
			var text strings.Builder
			tr.Subscribe(tmk.TextTrace(&text))
			cfg.Trace = tr
			app := epochApp(epochs)
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				app(tp)
				tp.Barrier(1_000_000)
				if tp.Rank() == 0 {
					verifyEpochApp(t, tp, epochs)
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Crash == nil {
				t.Fatal("no crash report despite injected crash")
			}
			if res.Crash.Action != "restart" {
				t.Fatalf("action = %q (report: %s)", res.Crash.Action, res.Crash)
			}
			if res.Crash.DeadRank != 1 || res.Crash.Generations != 2 {
				t.Errorf("report: dead=%d generations=%d", res.Crash.DeadRank, res.Crash.Generations)
			}
			if res.Transport.PeersDeclaredDead == 0 {
				t.Error("no liveness detection recorded")
			}
			tmk.CheckViews(t, tr, text.String(), trace.KindCrashInject, trace.KindCrashDetected, trace.KindRestart)
		})
	}
}

// TestCrashAbortNamesBlockingEntity kills the lock-holding rank of a
// lock-structured workload with no Restart and requires a coordinated
// abort whose post-mortem names the dead rank and the protocol entity
// each survivor was blocked on.
func TestCrashAbortNamesBlockingEntity(t *testing.T) {
	for _, kind := range bothTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Crash = tmk.CrashConfig{
				Rank:   1,
				AtLock: 2, // die holding nothing but with the token chain pointed here
			}
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				r := tp.AllocShared(8)
				tp.Barrier(1)
				for k := 0; k < 6; k++ {
					tp.LockAcquire(1) // rank 1 manages lock 1
					v := tp.ReadF64(r, 0)
					tp.WriteF64(r, 0, v+1)
					tp.LockRelease(1)
				}
				tp.Barrier(2)
			})
			var abort *tmk.CrashAbortError
			if !errors.As(err, &abort) {
				t.Fatalf("err = %v, want CrashAbortError", err)
			}
			if res == nil || res.Crash == nil {
				t.Fatal("abort without result/report")
			}
			rep := res.Crash
			if rep.Action != "abort" || rep.DeadRank != 1 {
				t.Fatalf("report: %s", rep)
			}
			text := rep.String()
			if !strings.Contains(text, "lock 1") && !strings.Contains(text, "barrier") {
				t.Errorf("post-mortem names no protocol entity:\n%s", text)
			}
			if res.PeerFailure == nil || res.PeerFailure.Peer != 1 {
				t.Errorf("PeerFailure = %+v, want peer 1", res.PeerFailure)
			}
		})
	}
}

// TestCrashAtTime exercises the virtual-time trigger: the victim dies at
// an arbitrary instant (not a protocol point), mid-epoch, and the restart
// still finishes the run with the right answer on every transport.
func TestCrashAtTime(t *testing.T) {
	const epochs = 5
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Crash = tmk.CrashConfig{
				Rank:    2,
				AtTime:  2_000_000, // 2ms: mid-epoch
				Restart: true,
			}
			app := epochApp(epochs)
			res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				app(tp)
				tp.Barrier(1_000_000)
				if tp.Rank() == 0 {
					verifyEpochApp(t, tp, epochs)
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep := res.Crash; rep == nil || rep.Action != "restart" || rep.DeadRank != 2 || rep.Generations != 2 {
				t.Fatalf("report: %v, want a restart after rank 2's death", rep)
			}
		})
	}
}

// TestZeroCrashConfigBitIdentical pins what arms the crash model: a
// victim rank and Restart with no trigger arm nothing — results
// bit-identical to a run with no crash model at all, and no heartbeat
// flows.
func TestZeroCrashConfigBitIdentical(t *testing.T) {
	for _, kind := range bothTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			app := epochApp(3)
			base, err := tmk.Run(tmk.DefaultConfig(4, kind), app)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Crash = tmk.CrashConfig{Rank: 1, Restart: true}
			inert, err := tmk.Run(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			if base.ExecTime != inert.ExecTime {
				t.Errorf("ExecTime %v != %v", base.ExecTime, inert.ExecTime)
			}
			if base.Stats != inert.Stats {
				t.Errorf("tmk stats diverged:\n%+v\n%+v", base.Stats, inert.Stats)
			}
			if base.Transport != inert.Transport {
				t.Errorf("transport stats diverged:\n%+v\n%+v", base.Transport, inert.Transport)
			}
			if inert.Crash != nil {
				t.Errorf("unarmed crash config produced a report: %s", inert.Crash)
			}
		})
	}
}

// TestLivenessStatsFlow sanity-checks that a crash trigger reaches the
// substrate's policy even when it never fires (the app takes no lock):
// heartbeats actually flow, and nobody is declared dead.
func TestLivenessStatsFlow(t *testing.T) {
	cfg := tmk.DefaultConfig(2, tmk.TransportFastGM)
	cfg.Crash = tmk.CrashConfig{Rank: 1, AtLock: 1}
	res, err := tmk.Run(cfg, epochApp(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.HeartbeatsSent == 0 {
		t.Error("detector armed but no heartbeats sent")
	}
	if res.Transport.PeersDeclaredDead != 0 {
		t.Errorf("false-positive death declarations: %d", res.Transport.PeersDeclaredDead)
	}
}

// TestRetryExhaustionAbortsWithPostMortem pins what a run with no crash
// model does when a peer stays unreachable: the transport that spends its
// retry budget declares the peer dead, which always calls the watchdog, so
// Run returns a CrashAbortError — there is no separate "stalled" outcome —
// whose report names the unreachable rank, the give-up and what every
// survivor was blocked on. Nothing reaches rank 1: rank 0's distribute
// scatter is left owing rank 1's ack alone, and nobody else has a request
// outstanding, so the small budget (on udpgm also the patience for a slow
// reply) condemns nobody else.
func TestRetryExhaustionAbortsWithPostMortem(t *testing.T) {
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Faults.Blackouts = []myrinet.Blackout{{Src: -1, Dst: 1, From: 0, To: 1 << 62}}
			app, _ := lockWorkload(3)
			res, err := tmk.NewTunedCluster(cfg, func(tb tmk.Testbed) {
				tb.Fast.MaxSendRetries = 2
				tb.UDP.MaxRetries = 2
			}).Run(app)
			var abort *tmk.CrashAbortError
			if !errors.As(err, &abort) {
				t.Fatalf("err = %v, want CrashAbortError", err)
			}
			rep := abort.Report
			if res == nil || res.Crash != rep || rep.Action != "abort" || rep.DeadRank != 1 {
				t.Fatalf("report: %s", rep)
			}
			if !strings.Contains(rep.Cause, "retry-exhausted") {
				t.Errorf("cause = %q, want retry-exhausted", rep.Cause)
			}
			// Rank 2 has the region at once; home-based, it waits for the
			// commit round rank 0 never reaches.
			want2 := "blocked on barrier 1 episode 0 (arrive at parent 0)"
			if kind == tmk.TransportRDMAGM {
				want2 = "blocked on region 0 (awaiting distribute from rank 0)"
			}
			for rank, want := range map[int]string{0: "blocked on region 0 (distribute; acks owed by [1])", 2: want2} {
				if rep.Entities[rank] != want {
					t.Errorf("survivor %d: %q, want %q", rank, rep.Entities[rank], want)
				}
			}
			if res.PeerFailure == nil || res.PeerFailure.Peer != 1 || res.PeerFailure.Kind != "retry-exhausted" {
				t.Errorf("PeerFailure = %+v, want retry-exhausted toward peer 1", res.PeerFailure)
			}
		})
	}
}

// TestLockTokensSurviveRestart restarts a lock-structured run: every rank
// increments two counters under two locks in every epoch, so by the time
// rank 1 dies the tokens have left their managers and the chain tails
// point around the cluster. The restarted generation starts its lock state
// over with the run — one that inherited a token or a tail from the dead
// generation deadlocks; one that kept a count gets the sums wrong.
func TestLockTokensSurviveRestart(t *testing.T) {
	const procs, epochs = 4, 12
	for _, kind := range allTransports {
		for _, at := range []int{6, 9, 12} { // entering the barriers of epochs 5, 8 and 11
			t.Run(fmt.Sprintf("%s/barrier%d", kind, at), func(t *testing.T) {
				cfg := tmk.DefaultConfig(procs, kind)
				cfg.Crash = tmk.CrashConfig{Rank: 1, AtBarrier: at, Restart: true}
				res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
					r := tp.AllocShared(2 * tmk.PageSize)
					tp.Barrier(1)
					for e := 1; e <= epochs; e++ {
						for lock := 0; lock < 2; lock++ {
							slot := lock * tmk.PageSize / 8 // a page per counter
							tp.LockAcquire(int32(lock))
							tp.WriteF64(r, slot, tp.ReadF64(r, slot)+1)
							tp.LockRelease(int32(lock))
						}
						tp.Barrier(int32(10 + e))
					}
					if tp.Rank() == 0 {
						for lock := 0; lock < 2; lock++ {
							if got := tp.ReadF64(r, lock*tmk.PageSize/8); got != procs*epochs {
								t.Errorf("counter %d = %v, want %d", lock, got, procs*epochs)
							}
						}
					}
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Crash == nil || res.Crash.Action != "restart" || res.Crash.DeadRank != 1 {
					t.Fatalf("report: %v", res.Crash)
				}
			})
		}
	}
}
