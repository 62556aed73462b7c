package fastgm

import (
	"fmt"

	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// creditFlushRetry is the re-arm delay when a credit-return frame cannot
// be shipped immediately (no free credit buffer or no send token); the
// owed counts are kept and the flush retried, mirroring rdmagm's
// completion-retry discipline.
const creditFlushRetry = 50 * sim.Microsecond

// flowState binds the shared credit ledger (substrate.Credits) to the
// asynchronous port's preposting schedule and carries the returns.
// Lanes are size classes: a sender holds SmallPerPeer credits per small
// class and one per large class toward each peer — its share of the
// receiver's per-peer prepost ring — so the shared ring can never be
// oversubscribed and a frame can never park into GM's 3 s resend-timeout
// → port-disable countdown. A credit is consumed when a request frame is
// staged and returned by an explicit frameCredit frame once the receiver
// has recycled the prepost buffer the frame occupied (recycling, not
// delivery: a masked or overloaded host holds its senders back, which is
// the point).
//
// Credit frames are consumed at the NIC filter in scheduler context, so
// a sender parked on exhausted credits inside its own interrupt handler
// is still replenished.
type flowState struct {
	t        *Transport
	credits  *substrate.Credits // nil with flow control off
	minClass int

	owed       [][]int // [peer][lane] returns owed to that sender
	flushArmed []bool  // [peer] flush retry timer pending
	bufs       []*gm.Buffer
}

// init sizes the ledger: one lane per size class, budget = this sender's
// prepost share at any peer, refresh quantum one buffer.
func (fl *flowState) init(t *Transport) {
	fl.t = t
	if !t.Policy().Flow {
		return
	}
	params := t.node.System().Params()
	fl.minClass = params.MinClass
	n := params.MaxClass - params.MinClass + 1
	budget, quantum := make([]int, n), make([]int, n)
	for lane := range budget {
		budget[lane], quantum[lane] = 1, 1
		if fl.minClass+lane <= SmallClassMax {
			budget[lane] = t.cfg.SmallPerPeer
		}
	}
	fl.credits = t.NewCredits(fmt.Sprintf("fastgm:%d:credits", t.Rank()), budget, quantum)
	fl.owed = make([][]int, t.Size())
	fl.flushArmed = make([]bool, t.Size())
	for i := range fl.owed {
		fl.owed[i] = make([]int, n)
	}
}

// start registers the credit-frame send pool; runs from Transport.Start
// in process context. Credit-return frames are the tag byte plus one
// (class, count16) entry per class, shipped from kernel context out of a
// dedicated registered pool (one buffer per peer covers the worst case
// of owing every peer at once).
func (fl *flowState) start() {
	if fl.credits == nil {
		return
	}
	t := fl.t
	class := t.node.System().Params().ClassFor(1 + 3*len(fl.owed[0]))
	bufs := t.node.Register(t.Proc(), t.Size()*gm.ClassCapacity(class)).Carve(class, t.Size())
	for i := range bufs {
		fl.bufs = append(fl.bufs, &bufs[i])
	}
}

// noteConsumed records that a credited request frame from src has been
// recycled to the prepost ring and owes its sender a credit, then tries
// to ship the return immediately.
func (fl *flowState) noteConsumed(src, class int) {
	if fl.credits == nil || src == fl.t.Rank() || src < 0 || src >= len(fl.owed) {
		return
	}
	lane := class - fl.minClass
	if lane < 0 || lane >= len(fl.owed[src]) {
		return
	}
	fl.owed[src][lane]++
	fl.flush(src)
}

// flush ships every owed credit for peer in one frameCredit frame. On
// any transient failure (pool dry, no token, port disabled) the counts
// are kept and a retry armed; a frame lost on the wire is covered by the
// peer's optimistic refresh.
func (fl *flowState) flush(peer int) {
	t := fl.t
	if t.Halted() {
		return
	}
	total := 0
	for _, c := range fl.owed[peer] {
		total += c
	}
	if total == 0 {
		return
	}
	if len(fl.bufs) == 0 {
		fl.armFlushRetry(peer)
		return
	}
	buf := fl.bufs[len(fl.bufs)-1]
	fl.bufs = fl.bufs[:len(fl.bufs)-1]
	b := buf.Bytes()
	b[0] = frameCredit
	n := 1
	for lane, cnt := range fl.owed[peer] {
		if cnt <= 0 {
			continue
		}
		b[n] = byte(fl.minClass + lane)
		b[n+1] = byte(cnt)
		b[n+2] = byte(cnt >> 8)
		n += 3
	}
	if !t.kernelSend(peer, buf, n, &fl.bufs) {
		fl.armFlushRetry(peer)
		return
	}
	clear(fl.owed[peer])
	t.Stats().CreditReturnsSent++
}

func (fl *flowState) armFlushRetry(peer int) {
	if fl.flushArmed[peer] {
		return
	}
	fl.flushArmed[peer] = true
	fl.t.Proc().Sim().After(creditFlushRetry, func() {
		fl.flushArmed[peer] = false
		fl.flush(peer)
	})
}

// onCreditFrame consumes a frameCredit arrival in NIC-filter (scheduler)
// context: replenish the ledger toward the sending peer (clamped at the
// budget, so duplicate returns can never oversubscribe).
func (fl *flowState) onCreditFrame(rv *gm.Recv) {
	peer := int(rv.From)
	if peer < 0 || peer >= len(fl.owed) || peer == fl.t.Rank() {
		return
	}
	fl.t.Stats().CreditReturnsRecvd++
	for body := rv.Data[1:]; len(body) >= 3; body = body[3:] {
		fl.credits.Release(peer, int(body[0])-fl.minClass, int(body[1])|int(body[2])<<8)
	}
}

// forget drops the returns owed to a dead peer; pending flush timers
// become no-ops.
func (fl *flowState) forget(peer int) {
	if fl.credits != nil && peer >= 0 && peer < len(fl.owed) {
		clear(fl.owed[peer])
	}
}
