package rdmagm

import "repro/internal/sim"

// The one-sided half's cost model, the RDMA/GM design point of firmware
// verb service on the LANai-9; the two-sided half runs on the
// fastgm.Config passed to New.
const (
	// NICServiceCost is the target-NIC firmware time to parse one verb
	// descriptor, run the window bounds check, and stage the DMA. It is
	// the whole remote-side cost of a verb: no interrupt, no dispatch,
	// no handler, no host copy.
	NICServiceCost = 1200 * sim.Nanosecond
	// DMABandwidth is the target-side NIC↔host-memory DMA rate for verb
	// payloads (the bytes a Put deposits or a Get collects).
	DMABandwidth = 900e6
	// CompletionCost is the initiator-side CPU cost to reap one
	// completion-queue entry.
	CompletionCost = 600 * sim.Nanosecond
)

// SendQueueDepth caps outstanding verbs per destination QP; posting past
// the cap reaps completions until a slot frees (real send queues are rings
// — posting to a full one blocks the same way).
const SendQueueDepth = 16

// The verb retransmission schedule. MaxVerbRetries bounds initiator-side
// retransmission of an uncompleted verb; past it the target is declared
// dead through the shared liveness state. VerbTimeout is the delay before
// the first retransmission of a verb whose completion has not arrived,
// doubling per attempt up to VerbTimeoutMax. The target-side duplicate
// filter makes redelivered verbs idempotent (a stale Put is never
// re-executed: the cached completion is resent).
//
// The full backoff schedule must outlast GM's 3 s resend timeout: a frame
// lost on a faulty fabric pins its send buffer (and, past the prepost ring,
// its receiver slot) until that timeout frees them, so a retry budget
// shorter than the pinning horizon turns one bad stall into a false peer
// death. 16 attempts at 5 ms doubling to 500 ms total ≈ 5.1 s.
const (
	MaxVerbRetries = 16
	VerbTimeout    = 5 * sim.Millisecond
	VerbTimeoutMax = 500 * sim.Millisecond
)
