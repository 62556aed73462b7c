package harness

import (
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// tracedRun runs app once with a tracer attached and returns the result
// and the events, failing if the ring lost any.
func tracedRun(tb testing.TB, app apps.App, nodes int, kind tmk.TransportKind) (*tmk.Result, []trace.Event) {
	tb.Helper()
	tracer := trace.New(1 << 21)
	res, err := RunApp(app, nodes, kind, func(c *tmk.Config) { c.Trace = tracer })
	if err != nil {
		tb.Fatal(err)
	}
	if n := tracer.Overwrote(); n > 0 {
		tb.Fatalf("trace ring overwrote %d events: the table would be short", n)
	}
	return res, tracer.Events()
}

// TestWireBytes pins `make wire-bytes` on a small run: every served
// request and every matched reply is counted once, under its request's
// kind, and a barrier's releases are the bytes of its arrivals' replies.
func TestWireBytes(t *testing.T) {
	for _, kind := range AllTransports {
		res, events := tracedRun(t, &apps.Jacobi{N: 64, Iters: 3, CostPerPoint: 120 * sim.Nanosecond}, 4, kind)
		rows := WireBytes(events)
		var reqs, reps int64
		got := map[string]WireKind{}
		for _, r := range rows {
			reqs += r.Requests
			reps += r.Replies
			got[r.Kind] = r
		}
		st := res.Transport
		if reqs != st.RequestsRecvd-st.DupRequests || reps != st.RepliesRecvd {
			t.Errorf("%s: table counts %d requests and %d replies, the substrate served %d and matched %d",
				kind, reqs, reps, st.RequestsRecvd-st.DupRequests, st.RepliesRecvd)
		}
		// Three ranks arrive at each barrier and rank 0 releases each.
		ba := got["barrier-arrive"]
		if ba.Requests != 3*res.Stats.Barriers/4 || ba.Replies != ba.Requests {
			t.Errorf("%s: barrier-arrive row %+v, want %d arrivals each answered", kind, ba, 3*res.Stats.Barriers/4)
		}
		if ba.RequestBytes == 0 || ba.ReplyBytes == 0 {
			t.Errorf("%s: barrier-arrive row %+v carries no bytes", kind, ba)
		}
	}
}

// BenchmarkWireBytes is `make wire-bytes`: one traced run of each of
// TestWorkloadAllocationBudgets' rows, printed as its messages and bytes by
// request kind. It measures no time; -benchtime 1x runs each row once.
func BenchmarkWireBytes(b *testing.B) {
	for _, w := range allocWorkloads {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, events := tracedRun(b, w.app(), w.nodes, w.kind)
				PrintWireBytes(os.Stdout, w.name, WireBytes(events), res.Transport.ContinuedFrames)
			}
		})
	}
}
