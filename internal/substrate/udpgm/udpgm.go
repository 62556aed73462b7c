// Package udpgm implements the paper's baseline transport: TreadMarks'
// stock request/reply machinery over UDP sockets (Myricom Sockets-GM).
//
// Structure (paper Section 1.1.1 / Figure 1):
//   - two sockets per process pair: a request socket (SIGIO-armed,
//     asynchronous) and a reply socket (read synchronously);
//   - requests are retransmitted on reply timeout with exponential
//     backoff (UDP is unreliable), and receivers keep a duplicate cache
//     so retransmitted requests are answered idempotently;
//   - the SIGIO handler pays signal-delivery cost, then drains the
//     request sockets and dispatches to the DSM's request handler.
package udpgm

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// Port bases: on node i, request socket j receives requests from peer j
// at reqPortBase+j, and reply socket j receives replies from peer j at
// repPortBase+j.
const (
	reqPortBase = 10000
	repPortBase = 20000
)

// RetransmitMax caps the retransmission backoff, which doubles from
// Config.RetransmitInitial.
const RetransmitMax = 500 * sim.Millisecond

// DispatchCost is the per-request decode/dispatch CPU on the testbed's
// 700 MHz PIII, calibrated with package sockets' kernel costs to the
// paper's ≈35 µs UDP/GM one-way latency.
const DispatchCost = 500 * sim.Nanosecond

// Config tunes the user-level reliability layer.
type Config struct {
	RetransmitInitial sim.Time // first retransmit timeout
	MaxRetries        int      // give up (fail-stop) after this many
}

// DefaultConfig mirrors TreadMarks' retransmission behaviour.
func DefaultConfig() Config {
	return Config{
		RetransmitInitial: 20 * sim.Millisecond,
		MaxRetries:        12,
	}
}

// Transport is the UDP/GM substrate for one process: the shared protocol
// core (call table with its retransmission clock, duplicate filter,
// give-up — package substrate) over kernel datagram sockets.
type Transport struct {
	substrate.Core
	stack *sockets.Stack

	reqIn   []*sockets.Socket // [peer] requests from peer (SIGIO)
	repIn   []*sockets.Socket // [peer] replies from peer
	replies []*sockets.Socket // the bound reply sockets, what AwaitReply selects on

	// Separate scratch buffers: the SIGIO handler can interrupt the
	// reply path mid-receive, so they must not share memory.
	reqBuf []byte
	repBuf []byte
}

// New creates the transport for process rank of size over the node's
// socket stack. UDP is unreliable, so the core runs its user-level
// per-call retransmission clock with this config's backoff and budget.
func New(stack *sockets.Stack, rank, size int, cfg Config) *Transport {
	t := &Transport{
		stack:  stack,
		reqBuf: make([]byte, sockets.MaxDatagram),
		repBuf: make([]byte, sockets.MaxDatagram),
	}
	t.Core.Init(t, rank, size,
		substrate.Backoff{Initial: cfg.RetransmitInitial, Max: RetransmitMax}, cfg.MaxRetries)
	return t
}

// MaxData returns the largest encodable message.
func (t *Transport) MaxData() int { return sockets.MaxDatagram }

// ReplyFrames implements substrate.Transport: each peer's replies land in
// a reply socket of their own, whose buffer holds this many full
// datagrams whatever the calls issued with it.
func (t *Transport) ReplyFrames(int) int { return sockets.RecvBufDefault / sockets.MaxDatagram }

// Start binds the 2(size-1) sockets and arms SIGIO on the request side.
func (t *Transport) Start(p *sim.Proc, h substrate.Handler) {
	t.Attach(p, h)
	// Handler before the first Bind: binding advances virtual time, and a
	// peer that started earlier may already be sending to ports as they
	// come up.
	p.SetInterruptHandler(t.onSIGIO)
	t.reqIn = make([]*sockets.Socket, t.Size())
	t.repIn = make([]*sockets.Socket, t.Size())
	for j := 0; j < t.Size(); j++ {
		if j == t.Rank() {
			continue
		}
		rq := t.stack.Socket(p)
		if err := rq.Bind(p, reqPortBase+j); err != nil {
			panic(fmt.Sprintf("udpgm: bind req %d/%d: %v", t.Rank(), j, err))
		}
		rq.SetSIGIO(p)
		t.reqIn[j] = rq

		rp := t.stack.Socket(p)
		if err := rp.Bind(p, repPortBase+j); err != nil {
			panic(fmt.Sprintf("udpgm: bind rep %d/%d: %v", t.Rank(), j, err))
		}
		t.repIn[j] = rp
		t.replies = append(t.replies, rp)
	}
}

// Shutdown closes all sockets.
func (t *Transport) Shutdown(p *sim.Proc) {
	for _, sk := range t.bound() {
		sk.Close(p)
	}
}

// bound returns every socket this transport bound, request side first.
func (t *Transport) bound() []*sockets.Socket {
	var socks []*sockets.Socket
	for _, side := range [][]*sockets.Socket{t.reqIn, t.repIn} {
		for _, sk := range side {
			if sk != nil {
				socks = append(socks, sk)
			}
		}
	}
	return socks
}

// PeerGone implements substrate.Wire. Nothing to release: the sockets
// facing a dead peer stay bound so its late datagrams are drained, and a
// collector always holds a retransmission deadline, so it needs no wake.
func (t *Transport) PeerGone(peer int) {}

// onSIGIO is the signal handler: pay signal delivery, then drain every
// readable request socket.
func (t *Transport) onSIGIO(p *sim.Proc, payload any) {
	t.Stats().AsyncWakeups++
	sigStart := p.Now()
	p.Advance(sockets.SignalDelivery)
	start := p.Now()
	// The signal tells us only "a request socket is readable"; TreadMarks
	// scans them all (select + recvfrom loop).
	for _, sk := range t.reqIn {
		if sk == nil {
			continue
		}
		for {
			n, _, _, span, ok := sk.TryRecvFrom(p, t.reqBuf)
			if !ok {
				break
			}
			t.dispatchRequest(p, t.reqBuf[:n], span)
		}
	}
	t.Stats().RequestService += p.Now() - start
	if tr := p.Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(sigStart), Dur: int64(p.Now() - sigStart),
			Layer: trace.LayerSubstrate, Kind: "sigio-service", Proc: p.ID(), Peer: -1})
	}
}

// dispatchRequest decodes one incoming request datagram and runs it
// through the core's duplicate filter and the DSM handler.
func (t *Transport) dispatchRequest(p *sim.Proc, raw []byte, span uint64) {
	p.Advance(DispatchCost)
	m, err := t.RequestDecoder(p).Decode(raw)
	if err != nil {
		panic(fmt.Sprintf("udpgm: corrupt request on node %d: %v", t.Rank(), err))
	}
	t.Live.Heard(int(m.From))
	if e := t.Admit(p, m, span, len(raw)); e != nil {
		t.AnswerDup(p, m, e)
	} else {
		t.Serve(p, m, len(raw))
	}
}

// AwaitReply implements substrate.Wire: select on the reply sockets until
// a reply datagram arrives or the earliest per-call deadline passes.
func (t *Transport) AwaitReply(p *sim.Proc, deadline sim.Time, into *msg.Decoder) *msg.Message {
	if deadline == 0 {
		deadline = sim.Infinity
	}
	idx := sockets.Select(p, t.replies, deadline)
	if idx < 0 {
		return nil
	}
	n, _, _, span, ok := t.replies[idx].TryRecvFrom(p, t.repBuf)
	if !ok {
		return nil
	}
	t.Stats().BytesRecvd += int64(n)
	m, err := into.Decode(t.repBuf[:n])
	if err != nil {
		panic(fmt.Sprintf("udpgm: corrupt reply on node %d: %v", t.Rank(), err))
	}
	t.Arrived(p, m, span)
	t.Live.Heard(int(m.From))
	return m
}

// Transmit implements substrate.Wire: requests go to the peer's request
// socket for this rank, replies to its reply socket. Any of our bound
// sockets sends (addressing is by node + port; the sending socket only
// determines the source port, which receivers ignore).
func (t *Transport) Transmit(p *sim.Proc, dst int, lane substrate.Lane, kind msg.Kind, body []byte, span uint64) {
	port := reqPortBase + t.Rank()
	if lane == substrate.LaneReply {
		port = repPortBase + t.Rank()
	}
	if len(body) > t.MaxData() {
		panic(fmt.Sprintf("udpgm: %d-byte message exceeds TreadMarks' %d-byte cap "+
			"(too many consistency intervals in one exchange; coarsen the application's "+
			"synchronization grain)", len(body), t.MaxData()))
	}
	t.Stats().BytesSent += int64(len(body))
	sk := t.repIn[dst]
	if sk == nil {
		sk = t.reqIn[dst]
	}
	if sk == nil {
		panic(fmt.Sprintf("udpgm: no socket toward rank %d", dst))
	}
	// Rank maps to fabric node identically: one DSM process per node, as
	// in the paper's runs.
	if err := sk.SendTo(p, myrinet.NodeID(dst), port, body, span); err != nil {
		panic(fmt.Sprintf("udpgm: sendto rank %d: %v", dst, err))
	}
}
