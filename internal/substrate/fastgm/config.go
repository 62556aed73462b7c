// Package fastgm implements the paper's substrate: TreadMarks bound
// directly to GM ("FAST/GM"). Its four components follow Section 2.2:
//
//  1. Connection management — all peers are multiplexed over exactly two
//     GM ports: an asynchronous request port (interrupting) and a
//     synchronous reply port (polled). "Connect" degenerates to knowing
//     the peer's GM node ID, so port usage is O(1) in cluster size.
//  2. Receive-buffer preposting — the async port preposts many small
//     request buffers plus (n−1) buffers of each larger class; the sync
//     port preposts one buffer per class per outstanding-call slot (the
//     scatter-gather fault path keeps up to n−1 replies in flight, one
//     per peer). Buffers are recycled immediately after the message is
//     consumed, so GM's no-buffer send timeout can never fire.
//  3. Buffer management — outgoing messages are copied into registered
//     send memory (one extra copy, zero TreadMarks changes): one arena
//     carved by message length (SendPool) — GM's size class belongs to
//     the receive buffer, so the send side needs none. Incoming requests
//     are processed in place; incoming replies are copied out into
//     TreadMarks structures (the paper's chosen design).
//  4. Asynchronous messages — three schemes: the NIC-firmware receive
//     interrupt (the paper's choice), a dedicated polling thread, and a
//     periodic timer; selectable for the ablation experiment (E4).
//
// An optional rendezvous protocol (Section 2.2.2) replaces preposted
// buffers of class ≥ RendezvousClass with an RTS/CTS exchange that pins a
// receive buffer on demand, trading an extra round trip for pinned
// memory — measured by experiment E5.
package fastgm

import "repro/internal/sim"

// AsyncScheme selects how asynchronous requests are detected.
type AsyncScheme int

// The three schemes of paper Section 2.2.4.
const (
	// AsyncInterrupt: modified NIC firmware raises a host interrupt when
	// a message lands on the async port. The paper's adopted design.
	AsyncInterrupt AsyncScheme = iota
	// AsyncPollingThread: a dedicated thread spins on gm_receive. Fast
	// detection but continuously steals CPU from the application.
	AsyncPollingThread
	// AsyncTimer: a periodic timer polls the async port. Cheap, but
	// request service latency is bounded below by the tick interval.
	AsyncTimer
)

func (s AsyncScheme) String() string {
	switch s {
	case AsyncInterrupt:
		return "interrupt"
	case AsyncPollingThread:
		return "polling-thread"
	case AsyncTimer:
		return "timer"
	default:
		return "unknown"
	}
}

// RendezvousClass is the smallest size class the rendezvous protocol
// carries when Config.Rendezvous is on; classes from it up are then never
// preposted.
const RendezvousClass = 13

// SmallClassMax: classes ≤ this are considered "small requests" and
// preposted SmallPerPeer × (n−1) deep on the async port; classes above get
// (n−1) buffers each (the paper's barrier-response case).
const SmallClassMax = 7

// SmallPerPeer is how deep each small class (≤ SmallClassMax) is
// preposted per peer on the async port.
const SmallPerPeer = 4

// Config selects the paper's two FAST/GM ablations. The zero value is the
// paper's adopted design: interrupt-driven async port, full preposting.
type Config struct {
	// Scheme selects how asynchronous requests are detected (experiment
	// E4).
	Scheme AsyncScheme

	// Rendezvous enables the RTS/CTS large-message protocol; classes ≥
	// RendezvousClass are then never preposted (experiment E5).
	Rendezvous bool
}

// The asynchronous-detection schemes' own parameters.
const (
	// TimerInterval is the AsyncTimer tick.
	TimerInterval = sim.Millisecond
	// PollComputeScale is the application slowdown imposed by the
	// spinning thread of AsyncPollingThread competing for memory
	// bandwidth and (on busy nodes) cycles. 1.0 = free.
	PollComputeScale = 1.15
)

// The host-side costs of the substrate on the testbed's 700 MHz PIII: its
// calibrated constants, the substrate bookkeeping that turns GM's 8.99 µs
// into the paper's 9.4 µs FAST/GM latency (EXPERIMENTS.md E0).
const (
	// PollDispatch is the detection+dispatch cost per request under
	// AsyncPollingThread (no NIC interrupt, just a cache-line watch).
	PollDispatch = 2 * sim.Microsecond
	// CopyBandwidth is host memcpy speed for the send-side copy into
	// registered buffers and the receive-side reply copy-out.
	CopyBandwidth = 800e6
	// DispatchCost is the per-request decode/dispatch CPU.
	DispatchCost = 500 * sim.Nanosecond
)

// The recovery protocol's retransmission schedule (only exercised on a
// faulty fabric; with the preposting invariant intact on a perfect network
// none of these paths run). A GM send failure — the resend timeout fired
// and disabled the port — triggers a port resume after GM's probe delay
// plus an idempotent retransmission of the frame; receivers filter the
// resulting duplicates by (origin, seq). RetryBackoff is the delay before
// the first retransmission, doubling per attempt up to RetryBackoffMax.
// MaxSendRetries bounds a frame's retransmissions; past it the fault is
// considered permanent and the send is abandoned.
const (
	RetryBackoff    = 5 * sim.Millisecond
	RetryBackoffMax = 200 * sim.Millisecond
	MaxSendRetries  = 16
)
