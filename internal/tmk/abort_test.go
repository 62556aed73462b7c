package tmk_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate/fastgm"
	"repro/internal/tmk"
	"repro/internal/trace"
)

var allTransports = []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportUDPGM, tmk.TransportRDMAGM}

// TestAbortNamesBlockingEntity: nothing reaches rank 1, the manager of
// lock 1, while ranks 0 and 2 ask it for the lock and rank 1 computes. The
// first survivor to spend its retry budget declares rank 1 dead, the
// post-mortem names the lock each survivor was blocked on, and the
// watchdog's crash-detected event reaches the ring and the protocol trace.
func TestAbortNamesBlockingEntity(t *testing.T) {
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Faults.Blackouts = []myrinet.Blackout{{Src: -1, Dst: 1, From: 0, To: 1 << 62}}
			tr := trace.New(1 << 16)
			var text strings.Builder
			tr.Subscribe(tmk.TextTrace(&text))
			cfg.Trace = tr
			res, err := tmk.NewCluster(cfg).Run(func(tp *tmk.Proc) {
				if tp.Rank() == 1 {
					tp.Compute(1000 * sim.Second) // killed by the abort long before
					return
				}
				tp.LockAcquire(1)
				tp.LockRelease(1)
			})
			var abort *tmk.AbortError
			if !errors.As(err, &abort) {
				t.Fatalf("err = %v, want AbortError", err)
			}
			rep := abort.Report
			if res == nil || res.Abort != rep || rep.DeadRank != 1 {
				t.Fatalf("report: %s", rep)
			}
			for _, rank := range []int{0, 2} {
				if want := "blocked on lock 1 (acquire via manager 1)"; rep.Entities[rank] != want {
					t.Errorf("survivor %d: %q, want %q", rank, rep.Entities[rank], want)
				}
			}
			if res.PeerFailure == nil || res.PeerFailure.Peer != 1 {
				t.Errorf("PeerFailure = %+v, want peer 1", res.PeerFailure)
			}
			tmk.CheckViews(t, tr, text.String(), trace.KindCrashDetected)
		})
	}
}

// TestRetryExhaustionAbortsWithPostMortem pins what a run with no crash
// model does when a peer stays unreachable: the transport that spends its
// retry budget declares the peer dead, which always calls the watchdog, so
// Run returns an AbortError — there is no separate "stalled" outcome —
// whose report names the unreachable rank, the give-up and what every
// survivor was blocked on. Nothing reaches rank 1: rank 0's distribute
// scatter is left owing rank 1's ack alone, and nobody else has a request
// outstanding, so the budget (on udpgm also the patience for a slow reply)
// condemns nobody else.
func TestRetryExhaustionAbortsWithPostMortem(t *testing.T) {
	for _, kind := range allTransports {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tmk.DefaultConfig(3, kind)
			cfg.Faults.Blackouts = []myrinet.Blackout{{Src: -1, Dst: 1, From: 0, To: 1 << 62}}
			app, _ := lockWorkload(3)
			res, err := tmk.NewCluster(cfg).Run(app)
			var abort *tmk.AbortError
			if !errors.As(err, &abort) {
				t.Fatalf("err = %v, want AbortError", err)
			}
			rep := abort.Report
			if res == nil || res.Abort != rep || rep.DeadRank != 1 {
				t.Fatalf("report: %s", rep)
			}
			if !strings.Contains(rep.Cause, "retry-exhausted") {
				t.Errorf("cause = %q, want retry-exhausted", rep.Cause)
			}
			// Rank 2 has the region at once; home-based, it waits for the
			// commit round rank 0 never reaches.
			want2 := "blocked on barrier 1 episode 0 (arrive at manager 0)"
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
			// What tmkrun prints: the verdict, then one line per survivor.
			want := fmt.Sprintf("tmk: run aborted: rank 1 declared dead by rank %d at %v (%s)\n  rank 0: %s\n  rank 2: %s",
				rep.DetectedBy, rep.DetectedAt, rep.Cause, rep.Entities[0], rep.Entities[2])
			if err.Error() != want {
				t.Errorf("abort prints\n%s\nwant\n%s", err, want)
			}
		})
	}
}

// TestAbortEndsEveryAsyncScheme: an abort ends the run under each of
// FAST/GM's asynchronous-delivery schemes. The timer scheme's periodic
// check stops with its process; one that outlived it would keep the
// simulator running forever.
func TestAbortEndsEveryAsyncScheme(t *testing.T) {
	for _, scheme := range []fastgm.AsyncScheme{fastgm.AsyncInterrupt, fastgm.AsyncPollingThread, fastgm.AsyncTimer} {
		cfg := tmk.DefaultConfig(3, tmk.TransportFastGM)
		cfg.Scheme = scheme
		cfg.Faults.Blackouts = []myrinet.Blackout{{Src: -1, Dst: 1, From: 0, To: 1 << 62}}
		app, _ := lockWorkload(3)
		_, err := tmk.NewCluster(cfg).Run(app)
		var abort *tmk.AbortError
		if !errors.As(err, &abort) {
			t.Errorf("scheme %v: err = %v, want AbortError", scheme, err)
		}
	}
}
