package prof

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

const tmkLayer = trace.LayerTMK

func TestPageAttributionAndFalseSharing(t *testing.T) {
	p := New()
	// Rank 0 and rank 1 both write page 7; rank 0 receives 4 notices from
	// rank 1 while twinned (false sharing), plus one covered duplicate.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 0, ID: 7, Region: 1, Dur: 100})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 1, ID: 7, Region: 1, Dur: 150})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 7, Region: 1, Dur: 50})
	for i := 0; i < 4; i++ {
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 0, ID: 7, Region: 1, Peer: 1, A: 1, B: 1})
	}
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 0, ID: 7, Region: 1, Peer: 1})
	// Page 8 has a single writer: score must stay 0 regardless of notices.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 0, ID: 8, Region: 1, Dur: 10})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 1, ID: 8, Region: 1, Peer: 0, A: 1})

	pr := p.Snapshot()
	if len(pr.Pages) != 2 || pr.Pages[0].ID != 7 || pr.Pages[1].ID != 8 {
		t.Fatalf("pages = %+v, want 7 and 8", pr.Pages)
	}
	ps := pr.Pages[0]
	if ps.Writers != 2 {
		t.Fatalf("writers = %d, want 2", ps.Writers)
	}
	if ps.ReadFaults != 1 || ps.WriteFaults != 2 || ps.FaultNs != 300 {
		t.Fatalf("faults = %+v", ps)
	}
	if ps.Notices != 5 || ps.FalseShareNotices != 4 || ps.Invalidations != 4 {
		t.Fatalf("notices = %+v", ps)
	}
	if got := ps.FalseSharingScore; got != 0.8 {
		t.Fatalf("false-sharing score = %v, want 0.8", got)
	}
	if got := pr.Pages[1].FalseSharingScore; got != 0 {
		t.Fatalf("single-writer score = %v, want 0", got)
	}
}

func TestLockWaitHoldHandoffs(t *testing.T) {
	p := New()
	// Rank 1 (manager) acquires locally at t=100, holds 400ns.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockLocal, Rank: 1, ID: 5, Peer: 1, T: 100})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockRelease, Rank: 1, ID: 5, T: 500})
	// Rank 0 acquires remotely after waiting 300ns, holds 200ns.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 0, ID: 5, Peer: 1, Dur: 300, T: 300})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockForward, Rank: 1, ID: 5})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockRelease, Rank: 0, ID: 5, T: 800})
	// Rank 0 re-acquires: no handoff.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockLocal, Rank: 0, ID: 5, Peer: 1, T: 900})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockRelease, Rank: 0, ID: 5, T: 950})

	pr := p.Snapshot()
	if len(pr.Locks) != 1 || pr.Locks[0].ID != 5 {
		t.Fatalf("locks = %+v, want lock 5 only", pr.Locks)
	}
	ls := pr.Locks[0]
	if ls.Manager != 1 {
		t.Fatalf("manager = %d", ls.Manager)
	}
	if ls.AcquiresLocal != 2 || ls.AcquiresRemote != 1 {
		t.Fatalf("acquires = %+v", ls)
	}
	if ls.WaitNs != 300 || ls.Holds != 3 || ls.HoldNs != 400+200+50 {
		t.Fatalf("wait/hold = %+v", ls)
	}
	if ls.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1 (1→0 only)", ls.Handoffs)
	}
	if got := ls.IndirectionRate; got != 1.0 {
		t.Fatalf("indirection rate = %v, want 1.0", got)
	}
}

func TestBarrierEpisodesAndEpochs(t *testing.T) {
	p := New()
	// Episode 0 of barrier 3: rank 0 arrives at 1000, rank 1 at 1700.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 3, A: 0, T: 1000})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 1, ID: 3, A: 0, T: 1700})
	// Page activity before the departs lands in epoch 0.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 9, Region: 1, Dur: 10})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: 3, A: 0, Dur: 900, B: 2, C: 5})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 1, ID: 3, A: 0, Dur: 200, B: 1, C: 3})
	// After crossing, activity lands in epoch 1.
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 9, Region: 1, Dur: 20})

	pr := p.Snapshot()
	if pr.MaxEpoch != 1 {
		t.Fatalf("max epoch = %d, want 1", pr.MaxEpoch)
	}
	if len(pr.Episodes) != 1 {
		t.Fatalf("episodes = %+v", pr.Episodes)
	}
	ep := pr.Episodes[0]
	if ep.Barrier != 3 || ep.Arrivals != 2 || ep.StartNs != 1000 || ep.SkewNs != 700 {
		t.Fatalf("episode = %+v", ep)
	}
	if len(pr.Barriers) != 1 {
		t.Fatalf("barriers = %+v", pr.Barriers)
	}
	br := pr.Barriers[0]
	if br.WaitNs != 1100 || br.SkewMaxNs != 700 || br.Episodes != 1 || br.Intervals != 3 || br.NoticePages != 8 {
		t.Fatalf("barrier row = %+v", br)
	}
	if len(pr.PageEpochs) != 2 {
		t.Fatalf("page-epoch cells = %+v", pr.PageEpochs)
	}
	if pr.PageEpochs[0].Epoch != 0 || pr.PageEpochs[0].Ns != 10 ||
		pr.PageEpochs[1].Epoch != 1 || pr.PageEpochs[1].Ns != 20 {
		t.Fatalf("cells = %+v", pr.PageEpochs)
	}
}

// TestSnapshotIsNonDestructive: a snapshot is a copy. Taking one midway
// changes neither what the profiler reports later nor the earlier
// snapshot's rows, including the fields Snapshot derives (ratios, episode
// and barrier skews).
func TestSnapshotIsNonDestructive(t *testing.T) {
	a := []trace.Event{
		{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 0, ID: 4, Region: 0, Dur: 70},
		{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 0, ID: 4, Region: 0, Peer: 1, A: 1, B: 1},
		{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 0, ID: 2, Peer: 1, Dur: 10, T: 90},
		{Layer: tmkLayer, Kind: trace.KindLockForward, Rank: 1, ID: 2},
		{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 1, A: 0, T: 500},
		{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 1, ID: 1, A: 0, T: 800},
		{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: 1, A: 0, Dur: 40, B: 1, C: 2},
	}
	b := []trace.Event{
		{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 1, ID: 4, Region: 0, Dur: 30},
		{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 1, ID: 4, Region: 0, Peer: 0, A: 1},
		{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 1, ID: 2, Peer: 1, Dur: 20, T: 200},
		{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 2, ID: 1, A: 0, T: 1500},
		{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 1, ID: 1, A: 0, Dur: 60, B: 2, C: 1},
		{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 1, A: 1, T: 2000},
		{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 1, ID: 1, A: 1, T: 2100},
		{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 4, Region: 0, Dur: 5},
	}
	jsonOf := func(pr *Profile) string {
		var buf bytes.Buffer
		if err := pr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	observe := func(p *Profiler, evs []trace.Event) {
		for _, e := range evs {
			p.Observe(e)
		}
	}

	p := New()
	observe(p, a)
	first := p.Snapshot()
	firstJSON := jsonOf(first)
	observe(p, b)
	second := jsonOf(p.Snapshot())

	fresh := New()
	observe(fresh, a)
	observe(fresh, b)
	if want := jsonOf(fresh.Snapshot()); second != want {
		t.Fatalf("snapshot after a midway snapshot:\n%s\nwant (no midway snapshot):\n%s", second, want)
	}
	if got := jsonOf(first); got != firstJSON {
		t.Fatalf("first snapshot changed by later events:\n%s\nwas:\n%s", got, firstJSON)
	}
	// The derived fields did move between the two, so the checks above saw them.
	if first.Episodes[0].SkewNs != 300 || first.Barriers[0].SkewMeanNs != 300 || first.Pages[0].Writers != 2 {
		t.Fatalf("first snapshot = %+v", first)
	}
	if !strings.Contains(second, `"skew_mean_ns": 550`) {
		t.Fatalf("second snapshot's mean barrier skew is not (1000+100)/2:\n%s", second)
	}
}

func TestTopNOrdering(t *testing.T) {
	p := New()
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 1, Region: 0, Dur: 100})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 2, Region: 0, Dur: 300})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 3, Region: 0, Dur: 200})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 0, ID: 10, Peer: 0, Dur: 50, T: 950})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 0, ID: 11, Peer: 1, Dur: 500, T: 500})
	pr := p.Snapshot()
	top := pr.TopPages(2)
	if len(top) != 2 || top[0].ID != 2 || top[1].ID != 3 {
		t.Fatalf("top pages = %+v", top)
	}
	locks := pr.TopLocks(5)
	if len(locks) != 2 || locks[0].ID != 11 {
		t.Fatalf("top locks = %+v", locks)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		p := New()
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 1, ID: 4, Region: 0, Dur: 70})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindWriteFault, Rank: 0, ID: 3, Region: 0, Dur: 80})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindNotice, Rank: 0, ID: 4, Region: 0, Peer: 1, A: 1, B: 1})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 0, ID: 2, Peer: 0, Dur: 10, T: 90})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockRelease, Rank: 0, ID: 2, T: 150})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 1, A: 0, T: 500})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: 1, A: 0, Dur: 40, B: 1, C: 2})
		var buf bytes.Buffer
		if err := p.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), `"schema": "tmk-prof/1"`) {
		t.Fatalf("missing schema header:\n%s", a)
	}
	// Rows must come out sorted by id.
	if i3, i4 := strings.Index(string(a), `"id": 3`), strings.Index(string(a), `"id": 4`); i3 < 0 || i4 < 0 || i3 > i4 {
		t.Fatalf("pages not sorted by id:\n%s", a)
	}
}

func TestWriteTablesAndHeatmap(t *testing.T) {
	p := New()
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 12, Region: 0, Dur: 1000})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 1, A: 0, T: 10})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: 1, A: 0, Dur: 5})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 12, Region: 0, Dur: 9000})
	pr := p.Snapshot()
	pr.App = "demo"
	pr.Size = "s"
	pr.Transport = "fastgm"
	pr.Nodes = 1

	var buf bytes.Buffer
	if err := pr.WriteTables(&buf, 5, 3, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"profile: demo/s", "top pages", "(no locks)", "barriers by arrival skew"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := pr.WriteHeatmap(&buf, 5); err != nil {
		t.Fatal(err)
	}
	hm := buf.String()
	if !strings.Contains(hm, "page x epoch heatmap") || !strings.Contains(hm, "12 |") {
		t.Fatalf("heatmap output:\n%s", hm)
	}
	// Epoch 1 (9000ns) must render denser than epoch 0 (1000ns).
	line := hm[strings.Index(hm, "12 |"):]
	cells := line[strings.Index(line, "|")+1:]
	if cells[0] == cells[1] {
		t.Fatalf("heatmap intensity not graded: %q", line)
	}
}

// Every row of every table is as wide as its header, the shutdown
// barrier's among them: its id is printed as "final".
func TestWriteTablesRowsFitTheirHeaders(t *testing.T) {
	p := New()
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 12, Region: 0, Dur: 1000})
	p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindLockAcquire, Rank: 1, ID: 3, Peer: 0, Dur: 40})
	for _, id := range []int32{1, trace.FinalBarrier} {
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: id, T: 10})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: id, Dur: 5})
	}
	var buf bytes.Buffer
	if err := p.Snapshot().WriteTables(&buf, 5, 3, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	tables := 0
	for i := 0; i < len(lines); i++ {
		if !strings.HasSuffix(lines[i], ":") { // a table's title; its header follows
			continue
		}
		tables++
		header := lines[i+1]
		for i += 2; i < len(lines) && !strings.HasSuffix(lines[i], ":"); i++ {
			if len(lines[i]) != len(header) {
				t.Errorf("row %q is %d wide, its header %q %d", lines[i], len(lines[i]), header, len(header))
			}
		}
		i--
	}
	if tables != 3 || !strings.Contains(out, " final ") {
		t.Errorf("want 3 tables and the shutdown barrier as final:\n%s", out)
	}
}

func TestHeatmapBucketsWideRuns(t *testing.T) {
	p := New()
	for e := 0; e < 200; e++ {
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindReadFault, Rank: 0, ID: 1, Region: 0, Dur: 100})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrierArrive, Rank: 0, ID: 1, A: e, T: int64(e)})
		p.Observe(trace.Event{Layer: tmkLayer, Kind: trace.KindBarrier, Rank: 0, ID: 1, A: e, Dur: 1})
	}
	var buf bytes.Buffer
	if err := p.Snapshot().WriteHeatmap(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "per column") {
		t.Fatalf("wide heatmap did not bucket:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "|"); i >= 0 {
			row := line[i+1 : strings.LastIndex(line, "|")]
			if len(row) > maxHeatCols {
				t.Fatalf("heatmap row wider than %d cols: %q", maxHeatCols, row)
			}
		}
	}
}

// TestObserveSkipsWhatItDoesNotReduce: another layer's event and the tmk
// kinds the profiler names as ignored leave no entity behind.
func TestObserveSkipsWhatItDoesNotReduce(t *testing.T) {
	p := New()
	p.Observe(trace.Event{Layer: trace.LayerSubstrate, Kind: trace.KindReadFault, ID: 1, Dur: 10})
	for _, k := range []string{trace.KindDiffApply, trace.KindLockGrant, trace.KindCrashDetected} {
		p.Observe(trace.Event{Layer: tmkLayer, Kind: k, ID: 1, Peer: 2, Bytes: 8, A: 1})
	}
	if pr := p.Snapshot(); len(pr.Pages)+len(pr.Locks)+len(pr.Barriers) != 0 {
		t.Fatalf("ignored events made entities: %+v", pr)
	}
}
