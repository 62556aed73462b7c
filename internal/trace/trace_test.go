package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: int64(i), Layer: LayerSim, Kind: "e"})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Overwrote() != 6 {
		t.Fatalf("Overwrote = %d, want 6", tr.Overwrote())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.T != want {
			t.Fatalf("event %d has T=%d, want %d", i, e.T, want)
		}
	}
}

func TestEventsChronologicalBeforeWrap(t *testing.T) {
	tr := New(8)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{T: int64(i * 100)})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].T != 0 || evs[2].T != 200 {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestBreakdownAggregatesAndOrders(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{T: 0, Dur: 10, Layer: LayerTMK, Kind: "barrier"})
	tr.Emit(Event{T: 5, Dur: 30, Layer: LayerTMK, Kind: "barrier", Bytes: 7})
	tr.Emit(Event{T: 1, Dur: 100, Layer: LayerGM, Kind: "send"})
	tr.Emit(Event{T: 2, Dur: 5, Layer: LayerTMK, Kind: "read-fault"})
	rows := tr.Breakdown()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	// gm sorts before tmk (bottom-up layer order).
	if rows[0].Layer != LayerGM || rows[0].Total != 100 {
		t.Fatalf("row 0 = %+v, want gm/send total 100", rows[0])
	}
	// Within tmk, barrier (40) before read-fault (5).
	if rows[1].Kind != "barrier" || rows[1].Count != 2 || rows[1].Total != 40 || rows[1].Bytes != 7 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if rows[2].Kind != "read-fault" {
		t.Fatalf("row 2 = %+v", rows[2])
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	tr := New(1)
	c := tr.Metrics().Counter(LayerGM, "send.class5")
	c.Add(2, 64)
	c.Inc(32)
	if got := tr.Metrics().Counter(LayerGM, "send.class5"); got != c || got.N != 3 || got.Sum != 96 {
		t.Fatalf("counter = %+v", got)
	}
	if got := tr.Metrics().Lookup("gm/send.class5"); got != c {
		t.Fatalf("Lookup = %p, want %p", got, c)
	}
	if got := tr.Metrics().Lookup("gm/absent"); got != nil {
		t.Fatalf("Lookup of an absent key = %+v", got)
	}
	h := tr.Metrics().Histogram(LayerMyrinet, "txlink.occupancy.ns")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if got := tr.Metrics().LookupHistogram("myrinet/txlink.occupancy.ns"); got != h || got.N != 6 || got.Sum != 1010 {
		t.Fatalf("hist = %+v", got)
	}
	names := tr.Metrics().CounterNames()
	if len(names) != 1 || names[0] != "gm/send.class5" {
		t.Fatalf("counter names = %v", names)
	}
}

// chromeFile mirrors the JSON object WriteChromeTrace produces.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tr := New(16)
	tr.SetThreadName(0, "tmk0")
	tr.Emit(Event{T: 1500, Dur: 2500, Layer: LayerTMK, Kind: "barrier", Proc: 0, Peer: 1, Bytes: 12})
	tr.Emit(Event{T: 4000, Layer: LayerGM, Kind: "send-timeout", Proc: 1, Peer: -1})
	tr.Emit(Event{T: 5000, Dur: 100, Layer: LayerMyrinet, Kind: "packet", Proc: -1, Peer: 2, Bytes: 4096})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var metas, spans, instants int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %+v", e)
			}
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Fatalf("span with no duration: %+v", e)
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Threads 0, 1 and the synthetic hardware thread.
	if metas != 3 || spans != 2 || instants != 1 {
		t.Fatalf("metas=%d spans=%d instants=%d\n%s", metas, spans, instants, buf.String())
	}
	// The barrier span: ts in µs.
	for _, e := range f.TraceEvents {
		if e.Name == "barrier" {
			if e.Ts != 1.5 || e.Dur != 2.5 || e.Cat != LayerTMK || e.Tid != 0 {
				t.Fatalf("barrier span = %+v", e)
			}
			if e.Args["peer"] != float64(1) || e.Args["bytes"] != float64(12) {
				t.Fatalf("barrier args = %+v", e.Args)
			}
		}
		if e.Name == "packet" && e.Tid != hardwareTid {
			t.Fatalf("device event not on hardware tid: %+v", e)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(4).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 0 {
		t.Fatalf("want no events, got %d", len(f.TraceEvents))
	}
}

func TestBreakdownPercentilesExact(t *testing.T) {
	tr := New(32)
	// 19 fast barriers, one slow straggler: mean hides it, p95 must not.
	for i := 0; i < 19; i++ {
		tr.Emit(Event{T: int64(i), Dur: 10, Layer: LayerTMK, Kind: "barrier"})
	}
	tr.Emit(Event{T: 100, Dur: 5000, Layer: LayerTMK, Kind: "barrier"})
	rows := tr.Breakdown()
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.P50 != 10 {
		t.Errorf("P50 = %d, want 10", r.P50)
	}
	if r.P95 != 10 {
		t.Errorf("P95 = %d, want 10 (rank 19 of 20)", r.P95)
	}
	if r.Max != 5000 {
		t.Errorf("Max = %d, want 5000", r.Max)
	}
}

func TestWriteBreakdown(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{T: 0, Dur: 2_000_000, Layer: LayerGM, Kind: "send"})
	tr.Emit(Event{T: 0, Dur: 1_000_000, Layer: LayerTMK, Kind: "barrier"})
	var buf bytes.Buffer
	if err := WriteBreakdown(&buf, "title", tr.Breakdown()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title", "gm", "send", "barrier", "= layer total", "2.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
}
