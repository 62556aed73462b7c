package harness_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func TestNetperfShape(t *testing.T) {
	rows, err := harness.Netperf()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]harness.NetRow{}
	for _, r := range rows {
		byName[r.Layer] = r
	}
	gm, fast, udp := byName["GM"], byName["FAST/GM"], byName["UDP/GM"]
	// Paper §3.1: GM 8.99µs, FAST/GM 9.4µs, UDP/GM ≈35µs.
	if gm.Latency < sim.Micro(8) || gm.Latency > sim.Micro(10) {
		t.Errorf("GM latency = %v, want ≈8.99µs", gm.Latency)
	}
	if fast.Latency <= gm.Latency {
		t.Errorf("FAST latency %v not above raw GM %v", fast.Latency, gm.Latency)
	}
	if fast.Latency > sim.Micro(14) {
		t.Errorf("FAST latency = %v, want ≈9.4µs–13µs", fast.Latency)
	}
	if udp.Latency < sim.Micro(28) || udp.Latency > sim.Micro(45) {
		t.Errorf("UDP latency = %v, want ≈35µs", udp.Latency)
	}
	// Bandwidth: GM ≈235 MB/s; FAST within ~15%; UDP clearly below.
	if gm.Bandwidth < 215e6 || gm.Bandwidth > 250e6 {
		t.Errorf("GM bandwidth = %.1f MB/s, want ≈235", gm.Bandwidth/1e6)
	}
	if fast.Bandwidth >= gm.Bandwidth {
		t.Errorf("FAST bandwidth %.1f ≥ raw GM %.1f", fast.Bandwidth/1e6, gm.Bandwidth/1e6)
	}
	if udp.Bandwidth >= fast.Bandwidth {
		t.Errorf("UDP bandwidth %.1f ≥ FAST %.1f", udp.Bandwidth/1e6, fast.Bandwidth/1e6)
	}
	var buf bytes.Buffer
	harness.PrintNetperf(&buf, rows)
	if !strings.Contains(buf.String(), "GM") {
		t.Error("printer produced nothing")
	}
}

func TestSizeLadders(t *testing.T) {
	for _, name := range harness.AppNames {
		ladder := harness.SizeLadder(name)
		if len(ladder) != 4 {
			t.Errorf("%s ladder has %d rungs", name, len(ladder))
		}
		seen := map[string]bool{}
		for _, app := range ladder {
			if app.Name() != name {
				t.Errorf("ladder rung name %q under %q", app.Name(), name)
			}
			if seen[app.Size()] {
				t.Errorf("%s duplicate size %s", name, app.Size())
			}
			seen[app.Size()] = true
		}
	}
	if harness.SizeLadder("nope") != nil {
		t.Error("unknown ladder not nil")
	}
}

func TestVerifiedRunCatchesApps(t *testing.T) {
	app := harness.SizeLadder("jacobi")[0]
	res, err := harness.VerifiedRun(app, 4, tmk.TransportFastGM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Error("no time elapsed")
	}
}

// TestSORVerifiesPastOneFrame: the ladder's smallest SOR, at its full ten
// iterations, verifies on both homeless substrates at two and four ranks.
// Its verification gather reads pages whose diffs alone — twenty
// half-sweeps of every other word — fill more than one 32 KB frame, and
// each is answered in continuation frames (DESIGN.md §4.3): one reply of
// it used to overrun TreadMarks' message cap.
func TestSORVerifiesPastOneFrame(t *testing.T) {
	for _, kind := range []tmk.TransportKind{tmk.TransportUDPGM, tmk.TransportFastGM} {
		for _, n := range []int{2, 4} {
			res, err := harness.VerifiedRun(harness.SizeLadder("sor")[0], n, kind, nil)
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", kind, n, err)
			}
			if res.Transport.ContinuedFrames == 0 {
				t.Errorf("%s at %d ranks: no reply continued across frames, the test proves nothing", kind, n)
			}
		}
	}
}

func TestRendezvousAblationShape(t *testing.T) {
	rows, err := harness.RendezvousAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	full, rv := rows[0], rows[1]
	if rv.PinnedMax >= full.PinnedMax {
		t.Errorf("rendezvous pinned %d ≥ full %d", rv.PinnedMax, full.PinnedMax)
	}
	if rv.Exec <= full.Exec {
		t.Errorf("rendezvous exec %v ≤ full %v (should pay overhead)", rv.Exec, full.Exec)
	}
	if rv.Rendezvous == 0 || full.Rendezvous != 0 {
		t.Errorf("RTS counts: full=%d rv=%d", full.Rendezvous, rv.Rendezvous)
	}
	var buf bytes.Buffer
	harness.PrintRendezvous(&buf, rows)
	if !strings.Contains(buf.String(), "rendezvous") {
		t.Error("printer output missing rows")
	}
}

func TestAsyncSchemesShape(t *testing.T) {
	rows, err := harness.AsyncSchemes()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	interrupt, polling, timer := rows[0], rows[1], rows[2]
	// The timer scheme's request service latency is bounded below by the
	// tick, so its synchronization costs dwarf the other two.
	if timer.LockIndirect <= interrupt.LockIndirect {
		t.Errorf("timer lock %v ≤ interrupt %v", timer.LockIndirect, interrupt.LockIndirect)
	}
	if timer.Jacobi <= interrupt.Jacobi {
		t.Errorf("timer jacobi %v ≤ interrupt %v", timer.Jacobi, interrupt.Jacobi)
	}
	if polling.Jacobi <= interrupt.Jacobi {
		t.Errorf("polling jacobi %v ≤ interrupt %v (stolen cycles must show)", polling.Jacobi, interrupt.Jacobi)
	}
	// The polling thread answers requests faster than the interrupt but
	// taxes the application's compute; both effects must be visible.
	if polling.LockIndirect >= interrupt.LockIndirect {
		t.Errorf("polling lock %v ≥ interrupt %v", polling.LockIndirect, interrupt.LockIndirect)
	}
	var buf bytes.Buffer
	harness.PrintAsyncSchemes(&buf, rows)
	if !strings.Contains(buf.String(), "interrupt") {
		t.Error("printer output missing schemes")
	}
}

func TestFigure3SmallSubset(t *testing.T) {
	rows, err := harness.Figure3([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 barrier rows + lock direct/indirect + page + diff small/large +
	// multi-writer diff for k ∈ {2,4,8}.
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Fast >= r.UDP {
			t.Errorf("%s: FAST %v not faster than UDP %v", r.Bench, r.Fast, r.UDP)
		}
	}
	var buf bytes.Buffer
	harness.PrintFigure3(&buf, rows)
	if !strings.Contains(buf.String(), "Barrier (2)") {
		t.Error("printer output incomplete")
	}
}

// TestRepliesDoNotSerialiseOnSendPool: Jacobi at 16 nodes is rank 0 serving
// cold page fetches to fifteen peers. With one registered send buffer per
// size class each reply parked — in the interrupt handler, the rank's own
// computation suspended under it — until the previous one had completed at
// the far NIC: 3,285 stalls for 4,670 GM sends. Carved by length, the same
// registered bytes hold a reply to every peer at once: stalls are the rare
// exception, and not one byte more is pinned (the pinned peak is the
// per-class pool's, to the byte).
func TestRepliesDoNotSerialiseOnSendPool(t *testing.T) {
	app := &apps.Jacobi{N: 640, Iters: 10, CostPerPoint: 120 * sim.Nanosecond}
	res, err := harness.RunApp(app, 16, tmk.TransportFastGM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without rendezvous every request, reply and forward is one GM send.
	tr := res.Transport
	sends := tr.RequestsSent + tr.RepliesSent + tr.ForwardsSent
	if sends == 0 || tr.SendBufStalls*50 > sends {
		t.Errorf("%d send-buffer stalls (%v parked) for %d GM sends, want ≤ 2%%", tr.SendBufStalls, tr.SendBufWait, sends)
	}
	if (tr.SendBufStalls == 0) != (tr.SendBufWait == 0) {
		t.Errorf("%d stalls but %v parked: the stall is counted and timed at one point", tr.SendBufStalls, tr.SendBufWait)
	}
	if res.MaxPinnedBytes != 2108160 {
		t.Errorf("pinned peak %d B, want the per-class pool's 2108160", res.MaxPinnedBytes)
	}
}
