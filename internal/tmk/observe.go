package tmk

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
)

// One observation point (DESIGN.md §8). Every protocol occurrence in this
// package is reported exactly once, as an event handed to Proc.observe,
// which records it as one trace.Event of a tmk kind (trace.Kind*) on the
// run's tracer (Config.Trace). Every view is a reduction of that stream:
// the ring, the protocol trace (TextTrace) and the entity profiler
// (internal/prof) each subscribe to the tracer. No other file in the
// package builds a trace.Event or formats a trace line. Stats counters
// are not a view: protocol code reads them, so they stay inline at the
// protocol sites.

// event is one protocol occurrence at the observing rank. A span gives
// start and dur and is observed when it completes; both zero means an
// instant happening now.
type event struct {
	kind    string // a trace.Kind* constant
	start   sim.Time
	dur     sim.Time
	peer    int       // the other rank involved; -1 if none
	bytes   int       // payload size
	page    *pageMeta // the page the event is about, or
	id      int32     // the lock, barrier or (without a pageMeta at hand) page id
	a, b, c int       // small values the kind's comment names
}

// observe records one protocol occurrence on the run's tracer. With none
// attached it returns at once — the check inlines into every site, so an
// untraced site makes no call — and nothing is allocated or formatted. It
// runs in the observing rank's own context or, for the watchdog, in
// scheduler context, so "now" is the simulator's clock.
func (tp *Proc) observe(e event) {
	if tp.cluster.cfg.Trace != nil {
		tp.record(e)
	}
}

// record is observe with a tracer attached.
func (tp *Proc) record(e event) {
	c := tp.cluster
	tr := c.cfg.Trace
	if e.start == 0 && e.dur == 0 {
		e.start = c.sim.Now()
	}
	var region int32
	if e.page != nil {
		e.id, region = e.page.id, e.page.region.ID
	}
	tr.Emit(trace.Event{T: int64(e.start), Dur: int64(e.dur), Layer: trace.LayerTMK, Kind: e.kind,
		Proc: tp.sp.ID(), Peer: e.peer, Bytes: e.bytes, Rank: tp.rank, ID: e.id, Region: region,
		A: e.a, B: e.b, C: e.c})
}

// observeCausal records an occurrence only the causal view reads (DESIGN.md
// §13): KindUnblock, this rank's mainline now following frame span, or
// KindAppEnd.
func (tp *Proc) observeCausal(kind string, span uint64) {
	if tr := tp.cluster.cfg.Trace; tr != nil {
		tr.Emit(trace.Event{T: int64(tp.cluster.sim.Now()), Layer: trace.LayerCausal, Kind: kind,
			Proc: tp.sp.ID(), Peer: -1, Rank: tp.rank, A: int(span)})
	}
}

// textFormats is the protocol trace's line for each tmk kind. Arguments
// are selected by index:
// [1] rank  [2] entity id  [3] peer  [4] bytes  [5] a  [6] b  [7] c.
// The text view skips no kind.
var textFormats = map[string]string{
	trace.KindReadFault:     "rank %[1]d read fault page %[2]d",
	trace.KindWriteFault:    "rank %[1]d write fault page %[2]d",
	trace.KindDiffFetch:     "rank %[1]d fetched diffs page %[2]d from %[3]d (%[5]d,%[6]d] (%[4]d bytes)",
	trace.KindDiffApply:     "rank %[1]d applies diff page %[2]d from %[3]d ts %[5]d (%[4]d bytes)",
	trace.KindDiffCreate:    "rank %[1]d closes interval ts %[5]d page %[2]d (%[4]d-byte diff)",
	trace.KindNotice:        "rank %[1]d write notice page %[2]d from %[3]d ts %[7]d (invalidated %[5]d, wrote here %[6]d)",
	trace.KindHomeFetch:     "rank %[1]d fetched page %[2]d from home %[3]d",
	trace.KindHomeFlush:     "rank %[1]d flushed %[4]d bytes of page %[2]d to home %[3]d",
	trace.KindLockLocal:     "rank %[1]d acquire lock %[2]d locally",
	trace.KindLockAcquire:   "rank %[1]d acquired lock %[2]d via %[3]d",
	trace.KindLockForward:   "mgr %[1]d forwards lock %[2]d acquire of %[5]d to %[3]d",
	trace.KindLockGrant:     "rank %[1]d grants lock %[2]d to %[3]d",
	trace.KindLockRelease:   "rank %[1]d releases lock %[2]d",
	trace.KindBarrierArrive: "rank %[1]d arrives at barrier %[2]d episode %[5]d",
	trace.KindBarrier:       "rank %[1]d crossed barrier %[2]d episode %[5]d (carried %[6]d intervals, %[7]d notice pages)",
	trace.KindCrashDetected: "watchdog: rank %[3]d dead (detected by %[1]d): aborting the run",
}

// TextTrace returns the protocol trace as a tracer subscriber: it prints
// each tmk event to w as one line, prefixed with the virtual time it
// happened (a span's end). Attach it with Config.Trace.Subscribe.
func TextTrace(w io.Writer) func(trace.Event) {
	return func(e trace.Event) {
		f, ok := textFormats[e.Kind]
		if e.Layer != trace.LayerTMK || !ok {
			return
		}
		line := fmt.Sprintf(f, e.Rank, e.ID, e.Peer, e.Bytes, e.A, e.B, e.C)
		fmt.Fprintf(w, "[%v] tmk: %s\n", sim.Time(e.T+e.Dur), line)
	}
}
