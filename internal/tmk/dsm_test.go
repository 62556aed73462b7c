package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/tmk"
)

var bothTransports = []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM}

func runBoth(t *testing.T, n int, app func(tp *tmk.Proc)) map[tmk.TransportKind]*tmk.Result {
	t.Helper()
	out := make(map[tmk.TransportKind]*tmk.Result)
	for _, kind := range bothTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res, err := tmk.Run(tmk.DefaultConfig(n, kind), app)
			if err != nil {
				t.Fatal(err)
			}
			out[kind] = res
		})
	}
	return out
}

func TestSingleProcessTrivial(t *testing.T) {
	runBoth(t, 1, func(tp *tmk.Proc) {
		r := tp.AllocShared(8 * 100)
		for i := 0; i < 100; i++ {
			tp.WriteF64(r, i, float64(i)*1.5)
		}
		for i := 0; i < 100; i++ {
			if got := tp.ReadF64(r, i); got != float64(i)*1.5 {
				t.Errorf("slot %d = %v", i, got)
			}
		}
	})
}

func TestLockProtectedCounter(t *testing.T) {
	const n = 4
	const rounds = 10
	runBoth(t, n, func(tp *tmk.Proc) {
		r := tp.AllocShared(8)
		tp.Barrier(1)
		for k := 0; k < rounds; k++ {
			tp.LockAcquire(0)
			v := tp.ReadF64(r, 0)
			tp.WriteF64(r, 0, v+1)
			tp.LockRelease(0)
		}
		tp.Barrier(2)
		if got := tp.ReadF64(r, 0); got != n*rounds {
			t.Errorf("rank %d: counter = %v, want %d", tp.Rank(), got, n*rounds)
		}
	})
}

func TestBarrierPropagatesWrites(t *testing.T) {
	const n = 4
	const slots = 1000 // spans two pages
	runBoth(t, n, func(tp *tmk.Proc) {
		r := tp.AllocShared(8 * slots)
		// Each rank writes its strided slots, then everyone reads all.
		for i := tp.Rank(); i < slots; i += n {
			tp.WriteF64(r, i, float64(i)*2+1)
		}
		tp.Barrier(1)
		for i := 0; i < slots; i++ {
			if got := tp.ReadF64(r, i); got != float64(i)*2+1 {
				t.Fatalf("rank %d: slot %d = %v, want %v", tp.Rank(), i, got, float64(i)*2+1)
			}
		}
	})
}

func TestFalseSharingMultipleWriters(t *testing.T) {
	// All ranks write disjoint words of the SAME page between barriers —
	// the multiple-writer twin/diff machinery must merge them.
	const n = 8
	runBoth(t, n, func(tp *tmk.Proc) {
		r := tp.AllocShared(tmk.PageSize)
		slots := tmk.PageSize / 8
		for round := 0; round < 3; round++ {
			for i := tp.Rank(); i < slots; i += n {
				tp.WriteF64(r, i, float64(round*10000+i))
			}
			tp.Barrier(int32(round + 1))
			for i := 0; i < slots; i++ {
				if got := tp.ReadF64(r, i); got != float64(round*10000+i) {
					t.Fatalf("rank %d round %d: slot %d = %v", tp.Rank(), round, i, got)
				}
			}
			tp.Barrier(int32(round + 100))
		}
	})
}

func TestLockPassesDataChain(t *testing.T) {
	// Sequential mutation through a lock: each rank in turn appends to a
	// shared log; later ranks must see every earlier write (LRC through
	// grant chains, including manager forwarding).
	const n = 4
	runBoth(t, n, func(tp *tmk.Proc) {
		r := tp.AllocShared(8 * (n*n + 1))
		tp.Barrier(1)
		for round := 0; round < n; round++ {
			// Rotate so every rank both acquires directly after the
			// manager and through third parties.
			if (round+tp.Rank())%n == 0 {
				tp.LockAcquire(5)
				cnt := int(tp.ReadF64(r, 0))
				tp.WriteF64(r, cnt+1, float64(1000*tp.Rank()+round))
				tp.WriteF64(r, 0, float64(cnt+1))
				tp.LockRelease(5)
			}
			tp.Barrier(int32(10 + round))
		}
		cnt := int(tp.ReadF64(r, 0))
		if cnt != n {
			t.Errorf("rank %d: %d log entries, want %d", tp.Rank(), cnt, n)
		}
	})
}

func TestReadYourOwnWritesWithoutSync(t *testing.T) {
	runBoth(t, 2, func(tp *tmk.Proc) {
		r := tp.AllocShared(tmk.PageSize * 2)
		if tp.Rank() == 0 {
			for i := 0; i < 100; i++ {
				tp.WriteF64(r, i, float64(i))
				if got := tp.ReadF64(r, i); got != float64(i) {
					t.Errorf("read-your-write slot %d = %v", i, got)
				}
			}
		}
	})
}

func TestLockMessageCounts(t *testing.T) {
	// Direct case: the manager (rank 0 for lock 0) last released; a
	// remote acquire costs 2 messages. Indirect: held last by a third
	// node; 3 messages. We verify via transport counters.
	cfg := tmk.DefaultConfig(3, tmk.TransportFastGM)
	cluster := tmk.NewCluster(cfg)
	var directReqs, indirectReqs int64
	res, err := cluster.Run(func(tp *tmk.Proc) {
		// Lock 0: manager is rank 0 and initially holds the token.
		tp.Barrier(1)
		if tp.Rank() == 1 {
			before := tp.Transport().Stats().RequestsSent + tp.Transport().Stats().ForwardsSent
			tp.LockAcquire(0) // direct: manager has token
			directReqs = tp.Transport().Stats().RequestsSent + tp.Transport().Stats().ForwardsSent - before
			tp.LockRelease(0)
		}
		tp.Barrier(2)
		if tp.Rank() == 2 {
			// Indirect: rank 1 holds the token now; manager must forward.
			tp.LockAcquire(0)
			tp.LockRelease(0)
		}
		tp.Barrier(3)
		_ = indirectReqs
	})
	if err != nil {
		t.Fatal(err)
	}
	if directReqs != 1 {
		t.Errorf("direct acquire sent %d requests, want 1 (2 messages total)", directReqs)
	}
	// Cluster-wide: rank2's acquire = 1 request + 1 forward + 1 grant.
	if res.Stats.LockAcquiresRemote != 2 {
		t.Errorf("remote acquires = %d, want 2", res.Stats.LockAcquiresRemote)
	}
	if res.Transport.ForwardsSent != 1 {
		t.Errorf("forwards = %d, want exactly 1 (the indirect acquire)", res.Transport.ForwardsSent)
	}
}

func TestLocalLockReacquireIsFree(t *testing.T) {
	cfg := tmk.DefaultConfig(2, tmk.TransportFastGM)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		if tp.Rank() == 0 {
			for i := 0; i < 10; i++ {
				tp.LockAcquire(0) // rank 0 manages lock 0 and keeps the token
				tp.LockRelease(0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LockAcquiresLocal != 10 || res.Stats.LockAcquiresRemote != 0 {
		t.Errorf("local=%d remote=%d, want 10/0",
			res.Stats.LockAcquiresLocal, res.Stats.LockAcquiresRemote)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, string) {
		cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
		res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
			r := tp.AllocShared(8 * 512)
			tp.Barrier(1)
			for k := 0; k < 5; k++ {
				tp.LockAcquire(int32(k % 3))
				v := tp.ReadF64(r, k*7)
				tp.WriteF64(r, k*7, v+float64(tp.Rank()+1))
				tp.LockRelease(int32(k % 3))
				tp.Barrier(int32(100 + k))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime, fmt.Sprint(res.Stats)
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
}

func TestManyPagesSweep(t *testing.T) {
	// Rank 0 initializes a 32-page region; all ranks then read it
	// (page-fetch storm), then each rank rewrites its stripe and rank 0
	// re-reads everything (diff storm).
	const n = 4
	const pages = 32
	runBoth(t, n, func(tp *tmk.Proc) {
		r := tp.AllocShared(pages * tmk.PageSize)
		slots := pages * tmk.PageSize / 8
		if tp.Rank() == 0 {
			for i := 0; i < slots; i++ {
				tp.WriteF64(r, i, float64(i))
			}
		}
		tp.Barrier(1)
		for i := 0; i < slots; i += 97 {
			if got := tp.ReadF64(r, i); got != float64(i) {
				t.Fatalf("rank %d: init slot %d = %v", tp.Rank(), i, got)
			}
		}
		tp.Barrier(2)
		per := slots / n
		for i := tp.Rank() * per; i < (tp.Rank()+1)*per; i++ {
			tp.WriteF64(r, i, float64(i)+0.5)
		}
		tp.Barrier(3)
		if tp.Rank() == 0 {
			for i := 0; i < per*n; i++ {
				if got := tp.ReadF64(r, i); got != float64(i)+0.5 {
					t.Fatalf("final slot %d = %v", i, got)
				}
			}
		}
	})
}

func TestFastGMBeatsUDPOnSharingWorkload(t *testing.T) {
	app := func(tp *tmk.Proc) {
		r := tp.AllocShared(16 * tmk.PageSize)
		tp.Barrier(1)
		slots := 16 * tmk.PageSize / 8
		for round := 0; round < 4; round++ {
			for i := tp.Rank(); i < slots; i += tp.NProcs() {
				tp.WriteF64(r, i, float64(round*slots+i))
			}
			tp.Barrier(int32(10 + round))
			sum := 0.0
			for i := 0; i < slots; i += 13 {
				sum += tp.ReadF64(r, i)
			}
			tp.Barrier(int32(100 + round))
			_ = sum
		}
	}
	fast, err := tmk.Run(tmk.DefaultConfig(4, tmk.TransportFastGM), app)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := tmk.Run(tmk.DefaultConfig(4, tmk.TransportUDPGM), app)
	if err != nil {
		t.Fatal(err)
	}
	if fast.ExecTime >= udp.ExecTime {
		t.Errorf("FAST/GM (%v) not faster than UDP/GM (%v)", fast.ExecTime, udp.ExecTime)
	}
	t.Logf("sharing workload: FAST=%v UDP=%v ratio=%.2f",
		fast.ExecTime, udp.ExecTime, float64(udp.ExecTime)/float64(fast.ExecTime))
}

func TestNoUDPDropsInDSMWorkloads(t *testing.T) {
	// The retransmission layer exists for safety, but a healthy DSM run
	// should not be dropping datagrams (the paper's app runs complete).
	cfg := tmk.DefaultConfig(4, tmk.TransportUDPGM)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		r := tp.AllocShared(8 * tmk.PageSize)
		tp.Barrier(1)
		for k := 0; k < 5; k++ {
			tp.LockAcquire(0)
			v := tp.ReadF64(r, 0)
			tp.WriteF64(r, 0, v+1)
			tp.LockRelease(0)
			tp.Barrier(int32(10 + k))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.Retransmits != 0 {
		t.Errorf("retransmits = %d in a healthy run", res.Transport.Retransmits)
	}
}

func TestRendezvousModeRunsDSM(t *testing.T) {
	cfg := tmk.DefaultConfig(4, tmk.TransportFastGM)
	cfg.Rendezvous = true
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		r := tp.AllocShared(4 * tmk.PageSize)
		slots := 4 * tmk.PageSize / 8
		if tp.Rank() == 0 {
			for i := 0; i < slots; i++ {
				tp.WriteF64(r, i, float64(i))
			}
		}
		tp.Barrier(1)
		for i := 0; i < slots; i += 51 {
			if got := tp.ReadF64(r, i); got != float64(i) {
				t.Fatalf("slot %d = %v", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.RendezvousRTS == 0 {
		t.Error("rendezvous never used despite 4KB+ page replies")
	}
}

func TestBarrierWaitAccounted(t *testing.T) {
	cfg := tmk.DefaultConfig(2, tmk.TransportFastGM)
	res, err := tmk.Run(cfg, func(tp *tmk.Proc) {
		if tp.Rank() == 1 {
			tp.Compute(10 * sim.Millisecond)
		}
		tp.Barrier(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 waited ≈10ms at the barrier.
	if res.Stats.BarrierWait < 9*sim.Millisecond {
		t.Errorf("BarrierWait = %v, want ≈10ms", res.Stats.BarrierWait)
	}
}
