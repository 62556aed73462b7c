package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/tmk"
)

// TestChurnSweep runs the full churn matrix (4 apps × 3 substrates plus
// the determinism pass) and requires every invariant to hold.
func TestChurnSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full churn sweep in -short mode")
	}
	var buf bytes.Buffer
	if err := Churn(&buf, DefaultChurnSpec(4)); err != nil {
		t.Fatalf("%v\n\nreport so far:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "all invariants held") {
		t.Errorf("report missing closing line:\n%s", out)
	}
	// One row per app × transport.
	if got, want := strings.Count(out, "rdmagm"), len(chaosApps()); got != want {
		t.Errorf("%d rdmagm rows, want %d:\n%s", got, want, out)
	}
}

// TestChurnSmoke is the make churn-smoke scope: one app on every
// substrate under the default schedule.
func TestChurnSmoke(t *testing.T) {
	spec := DefaultChurnSpec(4)
	app := chaosApps()[0]
	for _, kind := range AllTransports {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
			if err != nil {
				t.Fatal(err)
			}
			requireScheduleExecuted(t, spec, res)
		})
	}
}

// requireScheduleExecuted holds a verified churned run to its schedule:
// every event executed, one fence epoch per distinct crossing, and the
// crash absorbed without the crash machinery.
func requireScheduleExecuted(t *testing.T, spec ChurnSpec, res *tmk.Result) {
	t.Helper()
	joins, leaves, crashes, epoch := spec.expect()
	st := &res.Stats
	if st.MemberJoins != joins || st.MemberLeaves != leaves || st.MemberCrashes != crashes {
		t.Errorf("events %d/%d/%d, want %d/%d/%d",
			st.MemberJoins, st.MemberLeaves, st.MemberCrashes, joins, leaves, crashes)
	}
	if res.Member == nil || res.Member.Epoch != epoch {
		t.Errorf("member report %+v, want epoch %d", res.Member, epoch)
	}
	if res.Crash != nil {
		t.Errorf("crash machinery fired: %s", res.Crash)
	}
}

// TestChurnSpecExpect pins the schedule→expectation derivation.
func TestChurnSpecExpect(t *testing.T) {
	spec := ChurnSpec{Schedule: []tmk.ChurnEvent{
		{AtBarrier: 2, Kind: "join", Rank: 4},
		{AtBarrier: 2, Kind: "join", Rank: 5},
		{AtBarrier: 3, Kind: "leave", Rank: 5},
		{AtBarrier: 5, Kind: "crash", Rank: 4},
	}}
	joins, leaves, crashes, epoch := spec.expect()
	if joins != 2 || leaves != 1 || crashes != 1 || epoch != 3 {
		t.Errorf("expect() = %d/%d/%d epoch %d, want 2/1/1 epoch 3", joins, leaves, crashes, epoch)
	}
}

// TestChurnUnderTreeBarrier runs the default schedule under the k-ary
// combining tree, which membership used to reject: the tree keeps its
// static shape over the compute ranks (the root is rank 0 and never
// moves; extras cross no barrier), so a barrier-structured and a
// lock-structured app must verify, execute every scheduled event, and do
// so deterministically, at two fanouts and two cluster sizes on every
// substrate.
func TestChurnUnderTreeBarrier(t *testing.T) {
	for _, fanout := range []int{2, 3} {
		for _, nodes := range []int{4, 8} {
			spec := DefaultChurnSpec(nodes)
			mutate := func(cfg *tmk.Config) { spec.Mutate(cfg); cfg.BarrierFanout = fanout }
			for _, kind := range AllTransports {
				for _, app := range chaosApps() {
					if name := app.Name(); name != "jacobi" && name != "tsp" {
						continue // one barrier-structured app, one lock-structured
					}
					t.Run(fmt.Sprintf("fanout%d/%dp/%s/%s", fanout, nodes, kind, app.Name()), func(t *testing.T) {
						a, err := VerifiedRun(app, nodes, kind, mutate)
						if err != nil {
							t.Fatal(err)
						}
						requireScheduleExecuted(t, spec, a)
						b, err := VerifiedRun(app, nodes, kind, mutate)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameResult(a, b); err != nil {
							t.Errorf("not deterministic: %v", err)
						}
					})
				}
			}
		}
	}
}
