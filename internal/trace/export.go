package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of a Chrome trace_event JSON array. Field
// names follow the trace-event format specification; ts/dur are in
// microseconds (fractional — virtual time is ns-granular).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the ring as Chrome trace_event JSON, one
// "thread" per simulated process (pid 1 is the whole simulation).
// The output loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Spans become "X" complete events, instants "i".
// LayerCausal events are not drawn as instants: the causal view of the
// same events (Causal) turns every accepted frame into a flow — an
// "s"/"f" event pair Perfetto renders as an arrow from the sender's track
// at send time to the receiver's track at receive time. A wrapped ring
// draws the flows whose send it still holds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	cz := NewCausal()
	for _, e := range events {
		cz.Observe(e)
	}

	// Causal flows: one "s"/"f" pair per accepted edge, binding to the
	// enclosing slices on the sender's and receiver's tracks.
	var flows []chromeEvent
	for _, e := range cz.edges {
		if !e.Arrived() || e.FromPID < 0 || e.ToPID < 0 {
			continue
		}
		args := map[string]any{"from": e.From, "to": e.To}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		flows = append(flows,
			chromeEvent{Name: e.Kind, Cat: "causal", Ph: "s", ID: e.ID,
				Pid: 1, Tid: e.FromPID, Ts: float64(e.SendT) / 1e3, Args: args},
			chromeEvent{Name: e.Kind, Cat: "causal", Ph: "f", BP: "e", ID: e.ID,
				Pid: 1, Tid: e.ToPID, Ts: float64(e.RecvT) / 1e3})
	}

	// Thread-name metadata for every process that has a registered name
	// or appears in an event or a flow.
	tids := make(map[int]bool)
	for id := range t.names {
		tids[id] = true
	}
	for i := range events {
		tids[tid(events[i].Proc)] = true
	}
	for i := range flows {
		tids[flows[i].Tid] = true
	}
	ids := make([]int, 0, len(tids))
	for id := range tids {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	sep := ""
	enc := func(v chromeEvent) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := bw.WriteString(sep); err != nil {
			return err
		}
		sep = ",\n"
		_, err = bw.Write(b)
		return err
	}
	for _, id := range ids {
		name := t.names[id]
		if name == "" {
			name = fmt.Sprintf("proc%d", id)
		}
		if id == hardwareTid {
			name = "hardware"
		}
		meta := chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": name},
		}
		if err := enc(meta); err != nil {
			return err
		}
	}
	for _, e := range events {
		if e.Layer == LayerCausal {
			continue
		}
		ce := chromeEvent{
			Name: e.Kind,
			Cat:  e.Layer,
			Pid:  1,
			Tid:  tid(e.Proc),
			Ts:   float64(e.T) / 1e3,
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if e.Peer >= 0 || e.Bytes > 0 {
			args := make(map[string]any, 2)
			if e.Peer >= 0 {
				args["peer"] = e.Peer
			}
			if e.Bytes > 0 {
				args["bytes"] = e.Bytes
			}
			ce.Args = args
		}
		if err := enc(ce); err != nil {
			return err
		}
	}
	for _, fe := range flows {
		if err := enc(fe); err != nil {
			return err
		}
	}
	if sep != "" {
		sep = "\n"
	}
	if _, err := bw.WriteString(sep + "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// tid is the Chrome thread of process proc's events: device-level events
// (fabric, NIC), of no process, land on a synthetic "hardware" thread.
func tid(proc int) int {
	if proc < 0 {
		return hardwareTid
	}
	return proc
}

// hardwareTid is the synthetic thread id used for events that have no
// owning simulated process (Proc < 0), e.g. fabric packets.
const hardwareTid = 1 << 20

// WriteBreakdown renders rows as a plain-text per-layer time table.
// Times print in virtual milliseconds with microsecond precision.
func WriteBreakdown(w io.Writer, title string, rows []BreakdownRow) error {
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-9s %-24s %10s %14s %11s %11s %11s %12s\n",
		"layer", "kind", "count", "time(ms)", "p50(us)", "p95(us)", "p99(us)", "bytes"); err != nil {
		return err
	}
	lastLayer := ""
	var layerTotal int64
	flush := func() error {
		if lastLayer == "" {
			return nil
		}
		_, err := fmt.Fprintf(w, "  %-9s %-24s %10s %14.3f\n",
			"", "= layer total", "", float64(layerTotal)/1e6)
		return err
	}
	for _, r := range rows {
		if r.Layer != lastLayer {
			if err := flush(); err != nil {
				return err
			}
			lastLayer = r.Layer
			layerTotal = 0
		}
		layerTotal += r.Total
		if _, err := fmt.Fprintf(w, "  %-9s %-24s %10d %14.3f %11.3f %11.3f %11.3f %12d\n",
			r.Layer, r.Kind, r.Count, float64(r.Total)/1e6,
			float64(r.P50)/1e3, float64(r.P95)/1e3, float64(r.P99)/1e3, r.Bytes); err != nil {
			return err
		}
	}
	return flush()
}
