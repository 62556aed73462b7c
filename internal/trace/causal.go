package trace

// Causal tracing (DESIGN.md §13): every cross-node frame carries its span
// — the ID of its edge — beside its envelope as unbilled metadata, and
// with a Tracer attached its send and acceptance are trace events, beside
// each rank's mainline unblockings and application end (DESIGN.md §7).
// Causal is the subscriber that rebuilds the run's DAG from them. A send
// is a LayerCausal event named by its edge kind ("req:diff", "verb:put",
// …) with the span in A and the parent in B. An acceptance is the A of a
// substrate event starting at it (serve span, dup-request), the B of a
// span ending at it (call, verb: also the caller's unblocking), or a
// KindArrive instant.

// Kinds of LayerCausal events besides a send, whose Kind is its edge kind.
const (
	KindArrive  = "arrive"  // Proc accepted frame A at T
	KindUnblock = "unblock" // Rank's mainline now follows frame A (0: its own timeline)
	KindAppEnd  = "app-end" // Rank's application ended at T
)

// Mainline, as a send's parent (Event.B), names whatever last unblocked
// the sending rank's mainline; the reducer resolves it.
const Mainline = -1

// Send records the send half of a frame — e gives its edge kind, send
// time, sender (Proc, Rank), receiving rank (Peer), Bytes and parent (B)
// — under the tracer's next span, and returns that span: the frame carries
// it, and it becomes the parent of whatever the receiver does in response.
func (t *Tracer) Send(e Event) uint64 {
	t.spans++
	e.Layer, e.A = LayerCausal, int(t.spans)
	t.Emit(e)
	return t.spans
}

// Arrive records process proc's acceptance, at virtual time at, of the
// frame span names, where no substrate span carries it. A nil tracer, or
// a frame without a span (0), records nothing.
func (t *Tracer) Arrive(at int64, proc int, span uint64) {
	if t != nil && span != 0 {
		t.Emit(Event{T: at, Layer: LayerCausal, Kind: KindArrive, Proc: proc, Peer: -1, A: int(span)})
	}
}

// CausalEdge is one frame in the DAG. From/To are DSM ranks; FromPID /
// ToPID are the simulator process IDs (the Chrome-trace track IDs) of
// the sending and receiving contexts. RecvT is -1 until the edge's
// frame is first accepted — retransmitted duplicates carry the same
// span and are counted, not re-recorded.
type CausalEdge struct {
	ID      uint64
	Kind    string // e.g. "req:lock-acquire", "rep:diff", "fwd:lock-acquire", "verb:put", "comp:get"
	From    int
	To      int
	FromPID int
	ToPID   int
	Parent  uint64 // causal parent edge ID, 0 = sender's local timeline
	Bytes   int
	SendT   int64
	RecvT   int64
}

// Arrived reports whether the edge's frame was accepted.
func (e *CausalEdge) Arrived() bool { return e.RecvT >= 0 }

// Causal is the causal-DAG view of a trace stream: subscribe Observe to a
// run's tracer, or feed it a recorded stream (Tracer.Events) — both build
// the same DAG, whose edge IDs are the spans the tracer issued.
type Causal struct {
	base     uint64 // the span before the first edge: a recorded stream may start mid-run
	edges    []CausalEdge
	mainline map[int]uint64 // per rank: the span that last unblocked its mainline
	ends     map[int]int64
	dups     int64
}

// NewCausal returns an empty view.
func NewCausal() *Causal {
	return &Causal{
		mainline: make(map[int]uint64),
		ends:     make(map[int]int64),
	}
}

// Observe reduces one event of the stream into the DAG.
func (c *Causal) Observe(e Event) {
	switch e.Layer {
	case LayerSubstrate:
		if e.A != 0 {
			c.arrive(uint64(e.A), e.Proc, e.T)
		}
		if e.B != 0 {
			c.arrive(uint64(e.B), e.Proc, e.T+e.Dur)
			c.mainline[e.Rank] = uint64(e.B)
		}
	case LayerCausal:
		switch e.Kind {
		case KindArrive:
			c.arrive(uint64(e.A), e.Proc, e.T)
		case KindUnblock:
			c.mainline[e.Rank] = uint64(e.A)
		case KindAppEnd:
			c.ends[e.Rank] = e.T
		default:
			c.send(e)
		}
	}
}

// send opens a frame's edge. A parent naming no earlier edge is none.
func (c *Causal) send(e Event) {
	span := uint64(e.A)
	if len(c.edges) == 0 {
		c.base = span - 1
	} else if span != c.base+uint64(len(c.edges))+1 {
		return // not this stream's next span
	}
	parent := uint64(e.B)
	if e.B == Mainline {
		parent = c.mainline[e.Rank]
	}
	if c.edge(parent) == nil {
		parent = 0
	}
	c.edges = append(c.edges, CausalEdge{
		ID: span, Kind: e.Kind, From: e.Rank, To: e.Peer, FromPID: e.Proc, ToPID: -1,
		Parent: parent, Bytes: e.Bytes, SendT: e.T, RecvT: -1,
	})
}

// arrive records process pid's acceptance of frame span at t: the first
// one wins, and duplicates (retransmissions) are counted in DupArrivals.
func (c *Causal) arrive(span uint64, pid int, t int64) {
	e := c.edge(span)
	if e == nil {
		return
	}
	if e.Arrived() {
		c.dups++
		return
	}
	e.RecvT, e.ToPID = t, pid
}

// Len returns the number of recorded edges.
func (c *Causal) Len() int { return len(c.edges) }

// DupArrivals counts duplicate frame acceptances that were suppressed
// (same span arriving more than once — retransmission working as
// intended, not new edges).
func (c *Causal) DupArrivals() int64 { return c.dups }

// Edges returns a copy of the DAG's edges in creation (ID) order.
func (c *Causal) Edges() []CausalEdge {
	out := make([]CausalEdge, len(c.edges))
	copy(out, c.edges)
	return out
}

// edge returns the edge with the given ID, or nil.
func (c *Causal) edge(id uint64) *CausalEdge {
	if id <= c.base || id > c.base+uint64(len(c.edges)) {
		return nil
	}
	return &c.edges[id-c.base-1]
}
