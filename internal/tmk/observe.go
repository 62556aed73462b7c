package tmk

import (
	"fmt"
	"io"

	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// One observation point (DESIGN.md §8). Every protocol occurrence in this
// package is reported exactly once, as an event handed to Proc.observe,
// and the vocabulary below is the only place that says what each view
// makes of it: the trace ring (Config.Trace) records a trace.Event of the
// kind's ring name, the protocol trace (Cluster.TraceTo) prints its text
// line, the entity profiler (Config.Prof) is told its prof kinds. No
// other file in the package builds a trace.Event, calls the profiler or
// formats a trace line. Stats counters are not a view: protocol code
// reads them, so they stay inline at the protocol sites.
//
// The views grew as separate hand-fed channels and disagree in places.
// The vocabulary keeps each disagreement not yet fixed — what every view
// receives is pinned by TestObserverViewsGolden in internal/harness — and
// marks it DRIFT, so a fix is a change to one row.

// evKind is one vocabulary row: what the ring, the protocol trace and the
// profiler each make of a kind of event; an empty column means that view
// does not see it. Text arguments are selected by index:
// [1] rank  [2] entity id  [3] peer  [4] bytes  [5] a  [6] b  [7] vector clock.
type evKind struct {
	ring string
	text string
	prof []prof.Kind
}

var (
	// DRIFT: the text line marks the start of a read fault, ring and
	// profiler its completion; a write fault has no text line at all.
	evReadFaultBegin = &evKind{text: "rank %[1]d read fault page %[2]d"}
	evReadFault      = &evKind{ring: "read-fault", prof: []prof.Kind{prof.ReadFault}}
	evWriteFault     = &evKind{ring: "write-fault", prof: []prof.Kind{prof.WriteFault}}
	// DRIFT: a diff request is printed per range when it is issued (a, b =
	// the timestamp range), recorded and profiled per writer when the
	// reply is in. a = the interval timestamp of an applied or created diff.
	evDiffRequest = &evKind{text: "rank %[1]d requests diffs page %[2]d from %[3]d (%[5]d,%[6]d]"}
	evDiffFetch   = &evKind{ring: "diff-fetch", prof: []prof.Kind{prof.DiffFetch}}
	evDiffApply   = &evKind{text: "rank %[1]d applies diff page %[2]d from %[3]d ts %[5]d (%[4]d bytes)"}
	evDiffCreate  = &evKind{ring: "diff-create", prof: []prof.Kind{prof.DiffCreated},
		text: "rank %[1]d closes interval ts %[5]d page %[2]d (%[4]d-byte diff)"}
	// DRIFT: write-notice arrival exists for the profiler only.
	evNotice = &evKind{prof: []prof.Kind{prof.Notice}}

	// Home-based LRC; peer = the home. A home fetch is one Get of a read
	// fault (evReadFault), posted to merged; a fault has more than one only
	// if a notice landed mid-Get. A home flush is one page of an interval's
	// flush, from its diff's hand-off to the end of the interval's flush.
	evHomeFetch = &evKind{ring: "home-fetch", prof: []prof.Kind{prof.Fetch, prof.HomeFetch}}
	evHomeFlush = &evKind{ring: "home-flush", prof: []prof.Kind{prof.HomeFlush}}
	// A migration, observed once, by the rank that becomes home; peer = the
	// home it leaves.
	evHomeMove = &evKind{ring: "home-move", prof: []prof.Kind{prof.HomeMove},
		text: "rank %[1]d becomes home of page %[2]d (was %[3]d)"}

	// Locks; peer = the manager (a forward: the chain tail, a = the
	// requester). DRIFT: a local acquire and a release are not in the ring,
	// a remote acquire and a release are not printed, a grant is only
	// printed.
	evLockAcquireLocal = &evKind{text: "rank %[1]d acquire lock %[2]d locally", prof: []prof.Kind{prof.LockLocal}}
	evLockAcquire      = &evKind{ring: "lock-acquire", prof: []prof.Kind{prof.LockRemote}}
	evLockRelease      = &evKind{prof: []prof.Kind{prof.LockRelease}}
	evLockGrant        = &evKind{text: "rank %[1]d grants lock %[2]d to %[3]d (vc=%[7]v)"}
	evLockForward      = &evKind{ring: "lock-forward", prof: []prof.Kind{prof.LockForward},
		text: "mgr %[1]d forwards lock %[2]d acquire of %[5]d to %[3]d"}

	// Barriers; peer = the parent, a = the episode, b, c = the interval
	// records and write-notice page entries carried to it. DRIFT: arrival
	// exists for the profiler only, and no barrier event is printed.
	evBarrierArrive = &evKind{prof: []prof.Kind{prof.BarrierArrive}}
	evBarrier       = &evKind{ring: "barrier", prof: []prof.Kind{prof.BarrierDepart}}

	// Crash handling, observed by the dying rank (the injection) or the
	// detecting rank; peer = the dead rank (-1 if none), a = the trigger
	// count or the generation.
	evCrashInject   = &evKind{ring: "crash-inject", text: "crash injector: rank %[1]d dies (trigger %[5]d)"}
	evCrashDetected = &evKind{ring: "crash-detected",
		text: "watchdog: rank %[3]d dead (detected by %[1]d): tearing down generation %[5]d"}
	evRestart = &evKind{ring: "restart", text: "watchdog: restarting the run as generation %[5]d"}
)

// event is one protocol occurrence at the observing rank. A span gives
// start and dur; both zero means an instant happening now.
type event struct {
	kind    *evKind
	start   sim.Time
	dur     sim.Time
	peer    int       // the other rank involved; -1 if none
	bytes   int       // payload size
	page    *pageMeta // the page the event is about, or
	id      int32     // the lock, barrier or (without a pageMeta at hand) page id
	a, b, c int       // small values the kind's vocabulary comment names

	invalidated, wroteHere bool // evNotice: see prof.Event
}

// TraceTo prints the protocol trace — the text view of the event stream,
// one line per event prefixed with the virtual time — to w (nil stops it).
func (c *Cluster) TraceTo(w io.Writer) { c.text = w }

// observe hands one protocol occurrence to every attached view. With none
// attached it returns at once: nothing is allocated and nothing formatted.
// It runs in the observing rank's own context or, for the watchdog, in
// scheduler context, so "now" is the simulator's clock.
func (tp *Proc) observe(e event) {
	c := tp.cluster
	tr, pf := c.cfg.Trace, c.cfg.Prof
	if tr == nil && pf == nil && c.text == nil {
		return
	}
	if e.start == 0 && e.dur == 0 {
		e.start = c.sim.Now()
	}
	var region int32
	if e.page != nil {
		e.id, region = e.page.id, e.page.region.ID
	}
	if tr != nil && e.kind.ring != "" {
		tr.Emit(trace.Event{T: int64(e.start), Dur: int64(e.dur), Layer: trace.LayerTMK,
			Kind: e.kind.ring, Proc: tp.sp.ID(), Peer: e.peer, Bytes: e.bytes})
	}
	if pf != nil {
		for _, k := range e.kind.prof {
			pf.Observe(prof.Event{Kind: k, Rank: tp.rank, ID: e.id, Region: region, Peer: e.peer, Bytes: e.bytes,
				At: int64(e.start + e.dur), Dur: int64(e.dur), Invalidated: e.invalidated, WroteHere: e.wroteHere,
				Episode: int32(e.a), Intervals: e.b, NoticePages: e.c})
		}
	}
	if c.text != nil && e.kind.text != "" {
		line := fmt.Sprintf(e.kind.text, tp.rank, e.id, e.peer, e.bytes, e.a, e.b, tp.vc)
		fmt.Fprintf(c.text, "[%v] tmk: %s\n", c.sim.Now(), line)
	}
}
