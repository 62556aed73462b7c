// Package trace is the structured observability layer of the simulator:
// typed events with virtual timestamps recorded into a per-simulation
// ring buffer, plus a per-layer registry of counters and histograms.
//
// The package is deliberately zero-dependency (standard library only)
// and knows nothing about the simulator: timestamps and durations are
// raw virtual nanoseconds (int64), so every layer — from the Myrinet
// fabric model up to the TreadMarks protocol — can emit events without
// an import cycle. Emission sites are nil-checked: with no Tracer
// attached the instrumentation is a pointer comparison and costs no
// virtual time either way, so tracing cannot perturb simulated results.
//
// The ring is one consumer of the event stream; Subscribe adds others.
// Every view of the DSM protocol is such a reduction of one record per
// protocol event: tmk's protocol trace renders the tmk-layer events as
// text, the entity profiler (internal/prof) reduces trace.Event into
// per-page, per-lock and per-barrier attribution, and Causal rebuilds the
// run's causal DAG and critical path from the frame events.
//
// Two exporters turn a Tracer into something readable: WriteChromeTrace
// produces Chrome trace_event JSON (one "thread" per simulated process,
// loadable in Perfetto), and Breakdown/WriteBreakdown aggregate events
// into a per-layer time table of the kind the paper uses to attribute
// overheads to protocol layers.
package trace

import (
	"math"
	"slices"
	"sort"
)

// Layer names, one per architectural layer of the stack. Every emitted
// Event carries one of these in Layer; exporters group by them.
const (
	LayerSim       = "sim"       // scheduler: dispatch, compute, interrupts
	LayerMyrinet   = "myrinet"   // fabric: packets on the wire, NIC occupancy
	LayerGM        = "gm"        // GM library: sends, tokens, buffer matching
	LayerSockets   = "sockets"   // kernel UDP/IP over Sockets-GM
	LayerSubstrate = "substrate" // udpgm / fastgm request-reply transports
	LayerTMK       = "tmk"       // TreadMarks: faults, diffs, locks, barriers
	LayerCausal    = "causal"    // frame sends and acceptances, mainline unblockings, app ends (causal.go)
)

// Layer tmk's kinds, one per protocol occurrence (DESIGN.md §8 gives each
// one's Rank, ID, Region, A, B and C). A span is emitted when it completes.
const (
	KindReadFault     = "read-fault"     // span: a read fault on page ID
	KindWriteFault    = "write-fault"    // span: a write fault on page ID
	KindDiffFetch     = "diff-fetch"     // span: page ID's diffs (A, B] from writer Peer
	KindDiffApply     = "diff-apply"     // page ID's diff of interval A from writer Peer applied
	KindDiffCreate    = "diff-create"    // page ID's diff created at interval close A
	KindNotice        = "notice"         // a write notice for page ID from writer Peer
	KindHomeFetch     = "home-fetch"     // span: page ID read out of home Peer's window
	KindHomeFlush     = "home-flush"     // span: page ID's diff Put into home Peer's window
	KindLockLocal     = "lock-local"     // lock ID re-acquired at Rank, token already there
	KindLockAcquire   = "lock-acquire"   // span: lock ID granted to Rank via Peer
	KindLockForward   = "lock-forward"   // manager Rank forwarded A's acquire of lock ID to Peer
	KindLockGrant     = "lock-grant"     // Rank granted lock ID to Peer
	KindLockRelease   = "lock-release"   // Rank released lock ID
	KindBarrierArrive = "barrier-arrive" // Rank reached barrier ID in episode A
	KindBarrier       = "barrier"        // span: Rank crossed barrier ID in episode A
	KindCrashDetected = "crash-detected" // Rank found Peer dead; the run aborts
)

// FinalBarrier is the ID of the barrier every rank crosses as it shuts
// down, after the application returns.
const FinalBarrier int32 = 1<<31 - 1

// layerRank orders layers bottom-up in reports; unknown layers sort last.
func layerRank(layer string) int {
	switch layer {
	case LayerSim:
		return 0
	case LayerMyrinet:
		return 1
	case LayerGM:
		return 2
	case LayerSockets:
		return 3
	case LayerSubstrate:
		return 4
	case LayerTMK:
		return 5
	}
	return 6
}

// Event is one traced occurrence. A zero Dur makes it an instant; a
// positive Dur makes it a span covering [T, T+Dur] of virtual time. It is
// flat — no pointer, no slice — so recording one allocates nothing.
type Event struct {
	T     int64  // virtual start time, ns
	Dur   int64  // virtual duration, ns (0 = instant)
	Layer string // one of the Layer* constants
	Kind  string // event name within the layer ("advance", "packet", …)
	Proc  int    // simulated process id (sim.Proc.ID), -1 if none
	Peer  int    // remote rank or node involved, -1 if none
	Bytes int    // payload size, 0 if not applicable

	// Protocol identity, set by layer tmk (Rank is the observing DSM rank).
	// LayerCausal events, and the substrate spans that carry a frame's
	// acceptance, use Rank, A and B as causal.go describes.
	Rank       int
	ID, Region int32 // the page, lock or barrier; a page's region
	A, B, C    int   // small values the Kind's comment names
}

// DefaultCapacity is the ring size New(0) selects: large enough to
// hold every event of the microbenchmarks and the tail of app runs.
const DefaultCapacity = 1 << 17

// minRing is the ring's first allocation, in events.
const minRing = 1 << 10

// Tracer records events into a fixed-capacity ring buffer and owns the
// metrics registry. It is single-threaded by construction, like the
// simulator it observes.
type Tracer struct {
	ring      []Event
	capacity  int   // the most events ring grows to hold
	head      int   // next write position
	n         int   // valid events, ≤ len(ring)
	overwrote int64 // events lost to ring wrap-around
	names     map[int]string
	reg       *Registry
	spans     uint64 // the last span issued (Send)
	subs      []func(Event)
}

// New creates a tracer whose ring holds capacity events; capacity ≤ 0
// selects DefaultCapacity. The ring's storage follows the events recorded:
// a short run does not pay for the ring a long one needs.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		capacity: capacity,
		names:    make(map[int]string),
		reg:      newRegistry(),
	}
}

// Emit records e, overwriting the oldest event if the ring is full, and
// then hands it to every subscriber.
func (t *Tracer) Emit(e Event) {
	if t.n == len(t.ring) && t.n < t.capacity {
		// Full below capacity: nothing is overwritten yet, so the events
		// lie in order from 0. Double the storage and write after them.
		grown := make([]Event, min(max(2*t.n, minRing), t.capacity))
		copy(grown, t.ring)
		t.ring, t.head = grown, t.n
	}
	if t.n == len(t.ring) {
		t.overwrote++
	} else {
		t.n++
	}
	t.ring[t.head] = e
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	for _, fn := range t.subs {
		fn(e)
	}
}

// Subscribe hands fn every event recorded from now on, after the ring has
// it. A view that reduces the stream (the entity profiler, tmk's protocol
// trace) sees every event, even one the ring later overwrites.
func (t *Tracer) Subscribe(fn func(Event)) { t.subs = append(t.subs, fn) }

// Events returns the recorded events oldest-first. The slice is a copy.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int { return t.n }

// Overwrote returns how many events were lost to ring wrap-around.
func (t *Tracer) Overwrote() int64 { return t.overwrote }

// SetThreadName labels a process id for the Chrome exporter (the
// simulator registers every spawned process here).
func (t *Tracer) SetThreadName(proc int, name string) { t.names[proc] = name }

// Metrics returns the tracer's counter/histogram registry.
func (t *Tracer) Metrics() *Registry { return t.reg }

// BreakdownRow aggregates every event of one (layer, kind) pair. The
// percentiles are exact (computed from every recorded duration, not from
// buckets) under nearest-rank semantics; they expose the tails a mean
// hides — a lock-acquire row whose P95 dwarfs its P50 is a contended
// lock, not a uniformly slow one.
type BreakdownRow struct {
	Layer string
	Kind  string
	Count int64
	Total int64 // summed Dur, virtual ns
	Bytes int64 // summed Bytes
	P50   int64 // median Dur, virtual ns
	P95   int64 // 95th-percentile Dur, virtual ns
	P99   int64 // 99th-percentile Dur, virtual ns
	Max   int64 // largest Dur, virtual ns
}

// pctNearestRank returns the q-th quantile of sorted (ascending) values
// under nearest-rank semantics; 0 when empty.
func pctNearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Breakdown aggregates the ring into per-(layer, kind) rows, ordered
// bottom-up by layer and by descending total time within a layer. This
// is the per-layer time attribution the paper's analysis sections build
// their arguments on. LayerCausal's instants take no time and are left
// to the causal view.
func (t *Tracer) Breakdown() []BreakdownRow {
	type key struct{ layer, kind string }
	type entry struct {
		row  BreakdownRow
		durs []int64
	}
	agg := make(map[key]*entry)
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		e := &t.ring[(start+i)%len(t.ring)]
		if e.Layer == LayerCausal {
			continue
		}
		k := key{e.Layer, e.Kind}
		a := agg[k]
		if a == nil {
			a = &entry{row: BreakdownRow{Layer: e.Layer, Kind: e.Kind}}
			agg[k] = a
		}
		a.row.Count++
		a.row.Total += e.Dur
		a.row.Bytes += int64(e.Bytes)
		a.durs = append(a.durs, e.Dur)
	}
	rows := make([]BreakdownRow, 0, len(agg))
	for _, a := range agg {
		ds, r := a.durs, &a.row
		slices.Sort(ds)
		r.P50 = pctNearestRank(ds, 0.50)
		r.P95 = pctNearestRank(ds, 0.95)
		r.P99 = pctNearestRank(ds, 0.99)
		r.Max = ds[len(ds)-1]
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := layerRank(rows[i].Layer), layerRank(rows[j].Layer)
		if ri != rj {
			return ri < rj
		}
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Kind < rows[j].Kind
	})
	return rows
}
