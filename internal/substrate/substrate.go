// Package substrate is the communication layer TreadMarks is written
// against (Figure 2 of the paper): the Transport interface, one protocol
// core that implements most of it, and — in the sub-packages — three thin
// bindings of that core to an interconnect.
//
// The interface mirrors TreadMarks' communication model: requests arrive
// asynchronously and may be forwarded; replies are awaited synchronously
// and may come from a third node.
//
// # The core (this package)
//
// Everything that does not depend on how a frame travels is written here
// once and embedded by every binding (Core):
//
//   - the call table (calls.go): sequence numbers and every outstanding
//     acknowledged exchange — CallBegin/Collect/Call, and any family a
//     binding declares as an Exchange (rdmagm's verbs) — answer matching,
//     the per-call retransmission clock, and the one wait loop (Step);
//   - request service (core.go): the (origin, seq) duplicate filter with
//     cached replies and re-forwarding (DupCache), Reply/Forward/Send
//     bookkeeping, causal edge stamping;
//   - Liveness (liveness.go): last-heard clocks, declared-dead flags,
//     the typed PeerUnreachableError;
//   - Backoff (backoff.go): the shared retransmission schedule.
//
// There is no end-to-end credit flow control. A TreadMarks request is a
// call awaiting its reply, not an eager send (a forward relays one such
// call), so the requests in flight are bounded by the calls open, which
// the receivers prepost for (DESIGN.md §14).
//
// The give-up rule is one rule: a peer is declared dead by an exhausted
// retry budget (any layer), and from then on every call toward it —
// request or verb, pending or future, on every substrate — resolves to no
// answer and a *PeerUnreachableError, with PeerFailure() set.
//
// # The wire (what a binding provides)
//
// A binding implements the three methods of Wire — Transmit one encoded
// frame on a Lane, AwaitReply until a deadline, release per-peer state in
// PeerGone — plus Start/Shutdown/MaxData, and feeds arrivals to
// Core.Admit/Serve/AnswerDup and Liveness.Heard.
//
// # The three bindings
//
//   - udpgm — the baseline: TreadMarks' stock transport over UDP sockets
//     (Sockets-GM). Per-peer request sockets armed with SIGIO and reply
//     sockets read synchronously; every send and receive pays the kernel
//     path; UDP is unreliable, so the core's per-call RTO runs.
//   - fastgm — the paper's contribution (§2.2): all peers multiplexed
//     over two GM ports (an asynchronous request port with the
//     NIC-interrupt firmware mod, a synchronous reply port that is
//     polled), size-class receive-buffer preposting, a registered
//     send-buffer pool, three asynchronous-delivery schemes, and an
//     optional rendezvous protocol for large messages. Losses are
//     recovered below the core by GM-level retransmission.
//   - rdmagm — fastgm plus one-sided verbs (OneSided): registered memory
//     windows, Put/Get descriptors serviced by the target NIC without
//     host involvement, a completion queue reaped by the initiator. A
//     posted verb is a Call in the core's table (awaited on the CQ,
//     re-issued by re-staging its descriptor); a full QP send queue
//     waits on its own verbs' completions.
package substrate

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/statsutil"
)

// Handler processes one incoming asynchronous request in the receiving
// process's context (interrupt/SIGIO context; interrupts are masked for
// the duration) and typically ends by calling Reply or Forward. The
// message is decoded into the transport's storage and is valid until the
// handler returns: a handler that keeps any of it longer copies it.
type Handler func(p *sim.Proc, m *msg.Message)

// Transport is the communication substrate interface used by the DSM.
type Transport interface {
	// Start performs connection setup and installs the async request
	// handler. Must be called once by the owning process before any
	// communication; all processes must Start before traffic flows.
	Start(p *sim.Proc, h Handler)

	// Call sends a request to dst and blocks until the matching reply
	// arrives (possibly from a third node, for forwarded requests).
	// Asynchronous requests from other nodes are still serviced while
	// blocked. The transport fills in Seq/From/ReplyTo. Equivalent to
	// CallBegin followed by a single-element Collect, and its reply is
	// valid for as long.
	Call(p *sim.Proc, dst int, req *msg.Message) *msg.Message

	// CallBegin transmits a request to dst without waiting for the reply,
	// returning a handle for Collect. Multiple calls may be outstanding at
	// once (scatter); each transmits immediately, so the round trips
	// overlap and the gather cost is max-RTT, not sum-of-RTTs. req is
	// encoded before CallBegin returns; nothing of it is read after.
	CallBegin(p *sim.Proc, dst int, req *msg.Message) Pending

	// Collect blocks until every pending call has resolved, servicing
	// asynchronous requests meanwhile and accepting replies in any arrival
	// order. The result is indexed like pending; an entry is nil iff the
	// transport gave up on that peer (declared dead, by silence or by an
	// exhausted retry budget), mirroring Call's nil return. The handles,
	// the result slice and the replies are the transport's storage, valid
	// until the next Call or Collect in the same context of the process
	// (its mainline, or its handler) begins; whoever keeps any of it
	// longer copies it.
	Collect(p *sim.Proc, pending []Pending) []*msg.Message

	// Reply answers a previously received request; the reply is routed to
	// req's originator and matched to its sequence number. rep is encoded
	// before Reply returns, and the encoded body — a copy of every byte
	// slice rep points at — is what is transmitted, retransmitted and kept
	// to answer a duplicate: the caller may hand over live memory and
	// change it afterwards.
	Reply(p *sim.Proc, req *msg.Message, rep *msg.Message)

	// Forward relays a received request to another node, preserving the
	// originator so the eventual Reply goes directly back to it.
	Forward(p *sim.Proc, dst int, req *msg.Message)

	// Send transmits a request for which no reply is expected.
	Send(p *sim.Proc, dst int, req *msg.Message)

	// DisableAsync/EnableAsync mask asynchronous request delivery, as
	// TreadMarks masks SIGIO around consistency-critical sections.
	DisableAsync(p *sim.Proc)
	EnableAsync(p *sim.Proc)

	// Rank and Size identify this process in the run.
	Rank() int
	Size() int

	// MaxData returns the largest encoded message the transport carries.
	MaxData() int

	// ReplyFrames returns the frame budget a request may grant its reply
	// (msg.Message.SetBudget) when it is one of calls calls issued
	// together: how many frames this process's receive side holds for each
	// of their replies without a drop or a park, at most MaxFrames. A reply
	// continued across frames (msg.Message.Frame) resolves its call on its
	// last frame, as one reply.
	ReplyFrames(calls int) int

	// Stats exposes transport counters for the experiment harness.
	Stats() *Stats

	// Shutdown releases transport resources at process exit.
	Shutdown(p *sim.Proc)

	// SetOnPeerDead installs a callback invoked (once per peer, in
	// scheduler or process context) when a send toward the peer exhausts
	// its retry budget.
	SetOnPeerDead(fn func(peer int, err error))

	// PeerFailure returns the first typed give-up recorded, or nil.
	PeerFailure() *PeerUnreachableError
}

// OneSided is the optional capability interface for transports whose
// fabric supports RDMA-style one-sided verbs (remote read/write
// against registered memory windows, serviced by the remote NIC without
// host CPU, handler, or interrupt involvement). Discover it by type
// assertion (udpgm and fastgm lack it); the two-sided Transport contract
// remains mandatory and is used for everything the verbs do not cover.
type OneSided interface {
	// RegisterWindow pins mem and exposes it to every peer as remote
	// window id. Window ids are chosen by the caller and must be
	// registered before any peer posts a verb against them; verbs
	// against an unknown id or outside [0, len(mem)) complete with a
	// *WindowBoundsError. Re-registering an id replaces the mapping.
	RegisterWindow(p *sim.Proc, id int32, mem []byte)

	// PostPut starts a one-sided scatter write — each segment's Data lands
	// at its byte offset Off in dst's window — and returns immediately;
	// the transfer is complete (visible to the remote CPU and to
	// subsequent verbs) once the verb resolves in WaitVerbs. It is the one
	// write verb: a contiguous Put is the one-segment case. The target
	// checks every segment against the window before writing any, so a
	// Put that faults (the *WindowBoundsError names the first offending
	// segment) has written nothing; otherwise segments apply in order
	// (they may abut or overlap, and may be empty). The segments are
	// staged before PostPut returns and not retained. The whole verb is
	// one frame and one completion, so it must fit one: a Put
	// whose PutSize exceeds the fabric's largest message is a caller bug.
	PostPut(p *sim.Proc, dst int, window int32, segs ...PutSeg) PendingVerb

	// PutSize returns the frame size of a Put carrying nseg segments of
	// payload bytes in total — what a caller packing segments into Puts
	// sizes its frames by.
	PutSize(nseg, payload int) int

	// PostGet starts a one-sided read of n bytes from dst's window at
	// byte offset off; the payload is available from the handle's Data
	// once the verb resolves.
	PostGet(p *sim.Proc, dst int, window int32, off, n int) PendingVerb

	// WaitVerbs blocks until every verb has resolved, servicing
	// completions in any arrival order (like Collect, it may be called
	// with asynchronous request delivery masked — completion delivery
	// does not ride the async request port). It returns the first
	// verb-level error (*WindowBoundsError, or a *PeerUnreachableError
	// if the target was declared dead mid-verb, by silence or by a spent
	// retry budget), or nil if all verbs completed. Like Collect's, the
	// handles and a Get's Data are valid until the next WaitVerbs in the
	// same context of the process begins.
	WaitVerbs(p *sim.Proc, verbs []PendingVerb) error
}

// PutSeg is one contiguous piece of a one-sided write: Data, deposited at
// byte offset Off of the target window.
type PutSeg struct {
	Off  int
	Data []byte
}

// PendingVerb is the handle for one outstanding one-sided verb.
type PendingVerb interface {
	// Dst is the rank whose window the verb targets.
	Dst() int
	// Done reports whether the verb has resolved (completion received,
	// remote fault reported, or target declared dead).
	Done() bool
	// Err is nil until Done, and after if the verb succeeded.
	Err() error
	// Data returns a Get's payload; nil until Done and for a Put.
	Data() []byte
	// Issued and Completed bound the verb's lifetime.
	Issued() sim.Time
	Completed() sim.Time
}

// WindowBoundsError reports a one-sided verb that addressed an
// unregistered window or a byte range outside it. The check runs on the
// target NIC; the initiator sees it as the verb's error.
type WindowBoundsError struct {
	Peer   int   // target rank
	Window int32 // window id addressed
	Off    int   // byte offset addressed
	Len    int   // byte length addressed
	Size   int   // registered window size (-1 if the id is unknown)
}

func (e *WindowBoundsError) Error() string {
	if e.Size < 0 {
		return fmt.Sprintf("substrate: one-sided verb to rank %d: window %d not registered", e.Peer, e.Window)
	}
	return fmt.Sprintf("substrate: one-sided verb to rank %d: [%d,%d) outside window %d (%d bytes)",
		e.Peer, e.Off, e.Off+e.Len, e.Window, e.Size)
}

// Pending is the handle for one outstanding call issued with CallBegin.
// It is owned by the issuing process: handles are not goroutine-safe and
// must be resolved by a Collect on the same transport before the next
// synchronization operation.
type Pending interface {
	// Dst is the rank the request was sent to (the reply may still come
	// from a third node, for forwarded requests).
	Dst() int
	// Seq is the transport sequence number the reply will carry.
	Seq() uint32
	// Done reports whether the call has resolved (reply matched, or the
	// peer was declared dead).
	Done() bool
	// Reply returns the matched reply, nil until Done (and nil after, if
	// the transport gave up on the peer).
	Reply() *msg.Message
	// Issued and Completed bound the call's lifetime for per-pending
	// latency attribution; Completed is zero until Done.
	Issued() sim.Time
	Completed() sim.Time
}

// MaxFrames bounds the frames one reply may span (a call keeps a slot for
// each): half a megabyte of diffs, more than any page span asks for.
const MaxFrames = 16

// Stats counts transport-level activity for one process.
type Stats struct {
	RequestsSent    int64
	RepliesSent     int64
	ForwardsSent    int64
	RequestsRecvd   int64
	RepliesRecvd    int64
	BytesSent       int64
	BytesRecvd      int64
	Retransmits     int64
	DupRequests     int64
	StaleReplies    int64
	AsyncWakeups    int64 // SIGIO deliveries / NIC interrupts taken
	ContinuedFrames int64 // reply frames sent after a reply's first (continued replies)
	RendezvousRTS   int64 // large sends that used the rendezvous protocol
	SendBufStalls   int64 // waits for a free registered send buffer
	GMSendFailures  int64 // GM send callbacks reporting non-SendOK
	GMRetransmits   int64 // frames retransmitted after a GM send failure
	PortResumes     int64 // disabled GM ports re-enabled by the transport
	CorruptFrames   int64 // frames rejected as truncated/corrupt/unknown

	// Give-up counters (all zero unless a send actually exhausts its
	// retry budget).
	SendsAbandoned    int64 // sends, calls and verbs given up after retry exhaustion or peer death
	RetryExtensions   int64 // spent retry budgets extended because the peer is audibly alive
	PeersDeclaredDead int64 // peers this process declared dead

	// One-sided verb counters (all zero unless the transport implements
	// OneSided and the protocol posts verbs).
	OneSidedPuts     int64 // Put verbs posted
	OneSidedGets     int64 // Get verbs posted
	OneSidedBytesPut int64 // payload bytes written by Put verbs
	OneSidedBytesGot int64 // payload bytes read by Get verbs
	WindowFaults     int64 // verbs rejected by the target's bounds check

	ReplyWaitTime  sim.Time
	RequestService sim.Time
	// CreditWaitTime is always zero: no sender parks on a credit. It stays
	// because the benchmark's report still prints it
	// (substrate.credit_wait_virt_ms), and goes when that metric does.
	CreditWaitTime sim.Time
	SendBufWait    sim.Time // virtual time spent parked in SendBufStalls
}

// Add accumulates other into s for cluster-wide totals (every field, by
// reflection — a newly added counter cannot be forgotten).
func (s *Stats) Add(other *Stats) { statsutil.AddInto(s, other) }

func (s *Stats) String() string {
	out := fmt.Sprintf("req=%d rep=%d fwd=%d retx=%d dup=%d async=%d bytes=%d/%d",
		s.RequestsSent, s.RepliesSent, s.ForwardsSent, s.Retransmits,
		s.DupRequests, s.AsyncWakeups, s.BytesSent, s.BytesRecvd)
	if s.ContinuedFrames > 0 {
		out += fmt.Sprintf(" continued=%d", s.ContinuedFrames)
	}
	if s.SendBufStalls > 0 {
		out += fmt.Sprintf(" sendbuf=%d/%v", s.SendBufStalls, s.SendBufWait)
	}
	if s.PeersDeclaredDead > 0 {
		out += fmt.Sprintf(" dead=%d", s.PeersDeclaredDead)
	}
	if s.SendsAbandoned > 0 {
		out += fmt.Sprintf(" abandoned=%d", s.SendsAbandoned)
	}
	return out
}
