// Package rdmagm implements the one-sided substrate: TreadMarks bound to
// RDMA-style verbs over the simulated Myrinet fabric ("RDMA/GM"). It
// layers on fastgm — the two-sided request/reply half (startup, locks,
// barriers, heartbeats) is the embedded fastgm transport, unchanged on
// ports 2/3 — and adds two ports of its own:
//
//   - VerbPort (4) receives verb descriptors (Put/Get against registered
//     memory windows). It is serviced by a port sink — the model of
//     NIC-firmware execution: the verb is parsed, bounds-checked
//     against the window table, and DMA'd without host CPU, handler, or
//     interrupt involvement at the target. This is the whole point: the
//     fastgm page-fetch path pays a 7µs NIC interrupt plus dispatch,
//     handler, and two host copies at the target; a verb pays only the
//     firmware service time and the DMA.
//   - CQPort (5) receives completion entries at the initiator, reaped
//     synchronously by WaitVerbs (a completion queue). Because neither
//     direction ever needs the target's host CPU, verbs are legal while
//     asynchronous request delivery is masked — the hazard that makes
//     fastgm panic on a masked Call cannot arise.
//
// A posted verb is an entry in the substrate core's call table, like a
// two-sided request: the core allocates its sequence number and owns its
// retransmission clock (run by whoever waits on it — a lost completion is
// recovered by re-staging the kept descriptor), the stale-completion
// count, dead-peer resolution and the give-up rule. What this package
// adds is the interconnect: the frame codec, the firmware sink with its
// target-side (origin, seq) duplicate filter — a redelivered stale Put
// must not overwrite a newer one; its cached completion is resent — the
// CQ wait and the QP send queues.
package rdmagm

import (
	"fmt"
	"slices"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/trace"
)

// GM port assignment (ports 2/3 belong to the embedded fastgm).
const (
	VerbPort = 4 // verb descriptors; serviced by the NIC firmware sink
	CQPort   = 5 // completion queue; reaped synchronously by the initiator
)

// compRetry is the NIC's retry delay when a completion send has no free
// buffer or token (kernel context cannot block).
const compRetry = 50 * sim.Microsecond

// segDMACost is the target NIC's cost per Put segment on top of the
// frame's NICServiceCost: each segment is one more host DMA to set up,
// priced like every other host DMA in the model (DESIGN.md §12.1).
const segDMACost = myrinet.RxDMASetup

// Transport is the RDMA/GM substrate for one process.
type Transport struct {
	*fastgm.Transport
	node *gm.Node

	verbPort *gm.Port
	cqPort   *gm.Port

	// windows is the target-side registration table: window id → host
	// memory the NIC may DMA against.
	windows map[int32][]byte

	sendPool  *fastgm.SendPool // registered verb-descriptor send buffers
	compPool  *fastgm.SendPool // firmware completion staging buffers
	freeSends []*stagedSend    // completion records of finished sends, reused
	tokenCond *sim.Cond

	vdup *substrate.DupCache // target-side duplicate-verb filter
	vin  verbFrame           // the verb the sink is serving (onVerbFrame)
	// freeComps holds the completion sends no scheduled event holds any
	// more (compSend), reused.
	freeComps []*compSend
	// compQueued marks the cached completions whose send is re-arming on
	// compRetry. A redelivery must not start a second chain beside it: every
	// chain sends when a buffer frees, and the copies — to an initiator that
	// has moved on and is not reaping — fill its CQ ring, park the sends
	// behind them for GM's resend timeout and starve the other initiators.
	compQueued map[substrate.DupKey]bool

	// verbs is the one-sided family in the core's call table: a posted verb
	// is a substrate.Call answered by a CQ entry and re-issued by re-staging
	// its kept descriptor. sq is the per-destination QP send queue — the
	// verbs posted and not yet retired, in post order.
	verbs substrate.Exchange
	sq    [][]*substrate.Call
}

// New creates the substrate for process rank of size on a GM node under
// the run's policy: fast governs the two-sided request/reply half
// (startup, locks, barriers, liveness heartbeats — everything the verbs
// do not cover).
func New(node *gm.Node, rank, size int, pol substrate.Policy, fast fastgm.Config) *Transport {
	t := &Transport{
		Transport:  fastgm.New(node, rank, size, pol, fast),
		node:       node,
		windows:    make(map[int32][]byte),
		vdup:       substrate.NewDupCache(),
		compQueued: make(map[substrate.DupKey]bool),
		sq:         make([][]*substrate.Call, size),
	}
	t.SetWire(t)
	// Under loss the target's completion channel can starve for seconds — a
	// few lost frames pin its send buffers for GM's full resend timeout —
	// while its two-sided traffic keeps arriving here: only silence for that
	// long (or the failure detector's deadline, when armed) corroborates an
	// exhausted verb budget.
	t.verbs = substrate.Exchange{Await: t.reapOne,
		RTO:        substrate.Backoff{Initial: VerbTimeout, Max: VerbTimeoutMax},
		MaxRetries: MaxVerbRetries, Grace: node.System().Params().ResendTimeout,
		Resend: func(p *sim.Proc, pc *substrate.Call) bool { return t.sendVerb(p, pc, false) }}
	return t
}

// Start starts the embedded two-sided transport, then opens the verb and
// completion ports, preposts their receive rings, allocates the verb
// send pool, and installs the firmware sink.
func (t *Transport) Start(p *sim.Proc, h substrate.Handler) {
	t.Transport.Start(p, h)
	t.tokenCond = sim.NewCond(fmt.Sprintf("rdmagm:%d:tokens", t.Rank()))

	var err error
	if t.verbPort, err = t.node.OpenPort(VerbPort); err != nil {
		panic(fmt.Sprintf("rdmagm: %v", err))
	}
	if t.cqPort, err = t.node.OpenPort(CQPort); err != nil {
		panic(fmt.Sprintf("rdmagm: %v", err))
	}

	params := t.node.System().Params()
	prepost := func(port *gm.Port, count int) {
		for c := params.MinClass; c <= params.MaxClass; c++ {
			port.ProvideReceiveBuffers(t.node.Register(p, count*gm.ClassCapacity(c)).Carve(c, count))
		}
	}
	// Verb port: the sink recycles each buffer synchronously at arrival,
	// so a small ring per class suffices regardless of cluster size.
	prepost(t.verbPort, 4)
	// CQ port: one entry per send-queue slot plus margin; completions
	// beyond that park briefly until WaitVerbs reaps.
	prepost(t.cqPort, SendQueueDepth+2)
	// A registered send arena for verb descriptors (room for two frames of
	// each large class), and for completion entries the firmware's own
	// staging arena, pinned at boot like the kernel pools — never the verb
	// send pool. The separation is load-bearing under loss: a lost
	// data-verb frame pins its bytes for GM's full resend timeout, and if
	// completions competed for that space a burst of losses would silence
	// the completion channel exactly when the initiator's retry clock is
	// running.
	t.sendPool = fastgm.NewSendPool(fmt.Sprintf("rdmagm:%d:sendpool", t.Rank()),
		t.node.Register(p, t.SendPoolBytes(2)))
	t.compPool = fastgm.NewSendPool(fmt.Sprintf("rdmagm:%d:comppool", t.Rank()),
		t.node.RegisterAtBoot(t.SendPoolBytes(2)))

	t.verbPort.SetSink(t.onVerbFrame)
	if t.Live.Enabled() {
		// One-sided traffic proves the initiator alive at NIC level, even
		// while this host computes with asynchronous delivery masked.
		t.cqPort.SetFilter(func(rv *gm.Recv) bool {
			t.Live.Heard(int(rv.From))
			return false
		})
	}
}

// PeerGone implements substrate.Wire on top of the embedded binding's: the
// core has already resolved every verb toward the peer, so a process
// blocked on the completion queue is woken to observe it.
func (t *Transport) PeerGone(peer int) {
	t.Transport.PeerGone(peer)
	if t.cqPort != nil {
		t.cqPort.Kick()
	}
}

// Halt implements substrate.Transport: the embedded teardown plus the
// one-sided ports.
func (t *Transport) Halt() {
	if t.Halted() {
		return
	}
	t.Transport.Halt()
	t.node.ClosePort(VerbPort)
	t.node.ClosePort(CQPort)
}

// RegisterWindow implements substrate.OneSided. Registration is charged
// to the owning process like any GM memory registration; the window
// table maps the id to the live host memory verbs DMA against.
func (t *Transport) RegisterWindow(p *sim.Proc, id int32, mem []byte) {
	if len(mem) > 0 {
		t.node.Pin(p, mem)
	}
	t.windows[id] = mem
}

// PostPut implements substrate.OneSided.
func (t *Transport) PostPut(p *sim.Proc, dst int, window int32, segs ...substrate.PutSeg) substrate.PendingVerb {
	vf := verbFrame{op: frameVerbPut, window: window, segs: segs}
	n := verbFrameLen(&vf)
	st := t.Stats()
	st.OneSidedPuts++
	st.OneSidedBytesPut += int64(n - putFrameLen(len(segs), 0)) // payload: the frame less its headers
	// The gather into the registered descriptor: every segment header and
	// payload byte is a host copy (the payload rides the frame; windows on
	// the initiator side need no registration).
	p.Advance(sim.BytesTime(n, fastgm.CopyBandwidth))
	return t.post(p, dst, &vf)
}

// PutSize implements substrate.OneSided.
func (t *Transport) PutSize(nseg, payload int) int { return putFrameLen(nseg, payload) }

// PostGet implements substrate.OneSided.
func (t *Transport) PostGet(p *sim.Proc, dst int, window int32, off, n int) substrate.PendingVerb {
	st := t.Stats()
	st.OneSidedGets++
	st.OneSidedBytesGot += int64(n)
	vf := verbFrame{op: frameVerbGet, window: window, off: off, length: n}
	return t.post(p, dst, &vf)
}

// post waits for a QP slot, opens the verb in the core's call table under
// a fresh sequence number, encodes the descriptor into the call's frame,
// transmits it and starts its clock.
func (t *Transport) post(p *sim.Proc, dst int, vf *verbFrame) substrate.PendingVerb {
	if dst == t.Rank() {
		panic("rdmagm: one-sided verb to self")
	}
	if n := verbFrameLen(vf); n > t.node.System().Params().MaxMessage() {
		panic(fmt.Sprintf("rdmagm: %d-byte verb exceeds the %d-byte frame cap",
			n, t.node.System().Params().MaxMessage()))
	}
	// A full QP send queue waits on its own verbs until a slot frees.
	t.retire(dst)
	for len(t.sq[dst]) >= SendQueueDepth {
		t.awaitSlot(p, dst)
	}
	vf.origin = int32(t.Rank())
	vf.seq = t.NextSeq()
	n := verbFrameLen(vf)
	var aux []byte
	if cz := p.Sim().Causal(); cz != nil {
		// A verb is always posted from the initiator's mainline (there is
		// no handler-context posting path).
		aux = trace.EncodeCtx(cz.Edge("verb:"+verbName(vf.op), t.Rank(), dst, p.ID(),
			cz.Cur(t.Rank()).Span, n, int64(p.Now())))
	}
	pc := t.Open(p, &t.verbs, dst, vf.seq, aux)
	encodeVerb(pc.FrameBuf(n), vf)
	t.sq[dst] = append(t.sq[dst], pc)
	if !pc.Done() {
		t.sendVerb(p, pc, true)
		pc.Arm(p.Now())
	}
	return pc
}

// awaitSlot waits for what only a completion gives back — a QP slot
// toward dst: one turn of the core's wait loop over dst's send
// queue, then retirement of whatever resolved.
func (t *Transport) awaitSlot(p *sim.Proc, dst int) {
	substrate.Step(&t.Core, p, t.sq[dst])
	t.retire(dst)
}

// inQueue reports whether verb pc is still in its target's send queue:
// retire has not dropped it yet, so its record is not free.
func (t *Transport) inQueue(pc *substrate.Call) bool { return slices.Contains(t.sq[pc.Dst()], pc) }

// retire drops resolved verbs from dst's send queue.
func (t *Transport) retire(dst int) {
	t.sq[dst] = slices.DeleteFunc(t.sq[dst], (*substrate.Call).Done)
}

// sendVerb stages the kept descriptor into a registered buffer and sends
// it from process context. The first transmission waits for a buffer,
// tokens or a port resume like any GM send; a re-send (wait false) reports
// such a stall instead — GM holds a lost frame's buffer and token for its
// full resend timeout, and the re-sender is who reaps the completion queue.
func (t *Transport) sendVerb(p *sim.Proc, pc *substrate.Call, wait bool) bool {
	frame, aux := pc.Frame()
	buf := t.sendPool.TryTake(len(frame))
	if buf == nil {
		if !wait {
			return false
		}
		buf = t.TakeSendBuffer(p, t.sendPool, len(frame))
	}
	copy(buf.Bytes(), frame)
	for {
		ss := t.staged(t.sendPool, t.verbPort, buf)
		err := t.verbPort.SendAux(p, myrinet.NodeID(pc.Dst()), VerbPort, buf, len(frame), aux, ss.done)
		if err == nil {
			t.Stats().BytesSent += int64(len(frame))
			return true
		}
		t.freeSends = append(t.freeSends, ss) // GM did not take it
		switch {
		case err == gm.ErrNoSendTokens && wait:
			p.WaitOn(t.tokenCond)
		case err == gm.ErrPortDisabled && wait:
			t.AwaitResume(p, t.verbPort)
		case err == gm.ErrNoSendTokens || err == gm.ErrPortDisabled:
			t.sendPool.Put(buf)
			t.EnsureResume(t.verbPort) // no-op on an enabled port
			return false
		default:
			panic(fmt.Sprintf("rdmagm: send: %v", err))
		}
	}
}

// stagedSend is one GM send of a staged frame, either direction: the
// staging buffer, where it returns, and the callback bound once. The
// transport reuses it once GM has called it.
type stagedSend struct {
	t    *Transport
	pool *fastgm.SendPool
	port *gm.Port
	buf  *gm.Buffer
	done gm.SendCallback // ss.sent, bound once
}

// staged takes a free send record for buf, or makes one.
func (t *Transport) staged(pool *fastgm.SendPool, port *gm.Port, buf *gm.Buffer) *stagedSend {
	var ss *stagedSend
	if k := len(t.freeSends); k > 0 {
		ss, t.freeSends = t.freeSends[k-1], t.freeSends[:k-1]
	} else {
		ss = &stagedSend{t: t}
		ss.done = ss.sent
	}
	ss.pool, ss.port, ss.buf = pool, port, buf
	return ss
}

// sent is the GM send callback of both directions: the staging buffer
// returns to its pool, and a failed send only resumes the port — recovery
// is the verb's clock in the core re-staging the kept descriptor (the
// target resends a redelivered verb's cached completion).
func (ss *stagedSend) sent(st gm.SendStatus) {
	t, pool, port, buf := ss.t, ss.pool, ss.port, ss.buf
	ss.pool, ss.port, ss.buf = nil, nil, nil
	t.freeSends = append(t.freeSends, ss)
	pool.Put(buf)
	t.tokenCond.Broadcast()
	if st != gm.SendOK && !t.Halted() {
		t.Stats().GMSendFailures++
		t.EnsureResume(port)
	}
}

// WaitVerbs implements substrate.OneSided: the core's wait loop over the
// completion queue until every verb resolves. Legal with asynchronous
// delivery masked — completion arrival never involves the async request
// port, and the target never needs our handler. The verbs the previous
// WaitVerbs in this context returned are reclaimed first (a Get's data is
// valid until then); these are lent to the caller.
func (t *Transport) WaitVerbs(p *sim.Proc, verbs []substrate.PendingVerb) error {
	t.Reclaim(p, &t.verbs, t.inQueue)
	for substrate.Step(&t.Core, p, verbs) > 0 {
	}
	substrate.Lend(&t.Core, p, verbs)
	for _, v := range verbs {
		if err := v.Err(); err != nil {
			return err
		}
	}
	return nil
}

// reapOne is the verb family's Await: block on the CQ port for one entry.
func (t *Transport) reapOne(p *sim.Proc, deadline sim.Time) bool {
	rv := t.cqPort.WaitRecvUntil(p, deadline)
	if rv != nil {
		t.handleCompletion(p, rv)
	}
	return rv != nil
}

// handleCompletion consumes one CQ entry in initiator context.
func (t *Transport) handleCompletion(p *sim.Proc, rv *gm.Recv) {
	st := t.Stats()
	t.Live.Heard(int(rv.From))
	defer t.cqPort.ProvideReceiveBuffer(rv.Buffer)
	if len(rv.Data) == 0 || rv.Data[0] != frameCompletion {
		st.CorruptFrames++
		return
	}
	p.Advance(CompletionCost)
	cf, err := decodeCompletion(rv.Data)
	if err != nil {
		st.CorruptFrames++
		return
	}
	st.BytesRecvd += int64(len(rv.Data))
	cz, ctx := p.Sim().Causal(), trace.Ctx{}
	if cz != nil {
		ctx = trace.DecodeCtx(rv.Aux)
		cz.Arrive(ctx, p.ID(), int64(p.Now()))
	}
	pc := t.Lookup(p, &t.verbs, cf.seq, int(cf.from))
	if pc == nil {
		return
	}
	if frame, _ := pc.Frame(); frame[0] != cf.op {
		// The live verb of that sequence number is not what this answers.
		st.CorruptFrames++
		return
	}
	var data []byte
	var verr error
	switch {
	case cf.status != compOK:
		verr = &substrate.WindowBoundsError{Peer: pc.Dst(), Window: cf.window,
			Off: cf.off, Len: cf.length, Size: int(cf.size)}
	case cf.op == frameVerbGet:
		// The payload was DMA'd into initiator memory; Complete copies it
		// out of the receive ring, into the call's storage, before the
		// deferred recycle (no host-copy charge — the consumer's own
		// memcpy is the host cost).
		data = cf.payload
	}
	t.Complete(pc, data, verr)
	if cz != nil && !ctx.Zero() {
		// The matched completion is what unblocks WaitVerbs' mainline.
		cz.SetCur(t.Rank(), ctx)
	}
	if tr := p.Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(pc.Issued()), Dur: int64(pc.Completed() - pc.Issued()),
			Layer: trace.LayerSubstrate, Kind: "verb:" + verbName(cf.op),
			Proc: p.ID(), Peer: pc.Dst(), Bytes: len(rv.Data)})
	}
}

// verbName names a validated verb op for trace kinds.
func verbName(op byte) string {
	if op == frameVerbPut {
		return "put"
	}
	return "get"
}

// onVerbFrame is the verb-port sink: NIC-firmware verb service at the
// target, in scheduler context — no host CPU, no interrupt, no handler.
func (t *Transport) onVerbFrame(rv *gm.Recv) {
	st := t.Stats()
	t.Live.Heard(int(rv.From))
	vf := &t.vin
	if err := vf.decode(rv.Data); err != nil {
		st.CorruptFrames++
		t.verbPort.ProvideReceiveBuffer(rv.Buffer)
		return
	}
	st.BytesRecvd += int64(len(rv.Data))
	cz := t.Proc().Sim().Causal()
	if cz != nil {
		// The firmware sink has no host process; the flow endpoint is the
		// target process's track. Redelivered verbs carry the same span, so
		// Arrive stays idempotent.
		cz.Arrive(trace.DecodeCtx(rv.Aux), t.Proc().ID(), int64(t.Proc().Sim().Now()))
	}
	key := substrate.DupKey{Origin: vf.origin, Seq: vf.seq}
	if e, seen := t.vdup.Lookup(key); seen {
		// Redelivered verb: never re-execute (a stale Put must not
		// overwrite a newer one); resend the cached completion if the
		// original finished.
		st.DupRequests++
		t.verbPort.ProvideReceiveBuffer(rv.Buffer)
		if e.Done && !t.compQueued[key] {
			t.sendCompletion(key)
		}
		return
	}
	e := t.vdup.Insert(key)

	// Every range is checked against the window before any byte moves: a
	// faulting Put writes nothing, whichever of its segments is at fault.
	// The completion is encoded into the filter slot's storage, where it is
	// cached: a Get's payload is the window as it is now, a snapshot.
	var comp []byte
	var dmaBytes int
	win, ok := t.windows[vf.window]
	size, status := int64(len(win)), compOOB
	if !ok {
		size, status = -1, compBadWindow
	}
	if off, length, bad := vf.outside(int(size)); !ok || bad {
		st.WindowFaults++
		vf.off, vf.length = off, length
		comp = encodeCompletion(e.Reply, int32(t.Rank()), vf, status, nil, size)
	} else if vf.op == frameVerbPut {
		for _, s := range vf.segs {
			dmaBytes += copy(win[s.Off:], s.Data)
		}
		comp = encodeCompletion(e.Reply, int32(t.Rank()), vf, compOK, nil, 0)
	} else {
		dmaBytes = vf.length
		comp = encodeCompletion(e.Reply, int32(t.Rank()), vf, compOK, win[vf.off:vf.off+vf.length], 0)
	}
	// Firmware service (once per frame), one DMA descriptor per Put
	// segment, the DMA itself, then the completion entry.
	delay := NICServiceCost + sim.Time(len(vf.segs))*segDMACost +
		sim.BytesTime(dmaBytes, DMABandwidth)
	dst := int(vf.origin)
	var compAux []byte
	if cz != nil {
		// The completion is caused by the verb that requested it; its send
		// time is when the firmware actually ships the entry.
		vctx := trace.DecodeCtx(rv.Aux)
		cctx := cz.Edge("comp:"+verbName(vf.op), t.Rank(), dst, t.Proc().ID(),
			vctx.Span, len(comp), int64(t.Proc().Sim().Now()+delay))
		compAux = trace.EncodeCtx(cctx)
	}
	e.Done, e.Reply, e.ReplyAux, e.To = true, comp, compAux, dst
	t.verbPort.ProvideReceiveBuffer(rv.Buffer)

	t.Proc().Sim().After(delay, t.compSend(key))
}

// compSend is one completion send scheduled for later — after the verb's
// service time, or compRetry after a dry buffer pool: the key of the
// filter entry caching it and the event callback, bound once. The
// transport reuses the record once its event has fired.
type compSend struct {
	t    *Transport
	key  substrate.DupKey
	fire func() // cs.send, bound once
}

// compSend returns the callback of a free completion-send record for key.
func (t *Transport) compSend(key substrate.DupKey) func() {
	var cs *compSend
	if k := len(t.freeComps); k > 0 {
		cs, t.freeComps = t.freeComps[k-1], t.freeComps[:k-1]
	} else {
		cs = &compSend{t: t}
		cs.fire = cs.send
	}
	cs.key = key
	return cs.fire
}

func (cs *compSend) send() {
	t, key := cs.t, cs.key
	t.freeComps = append(t.freeComps, cs)
	t.sendCompletion(key)
}

// sendCompletion ships the CQ entry cached under key from kernel/event
// context, best-effort with a short retry when buffers or tokens are dry:
// a lost completion is recovered by the initiator's verb retransmission.
// An entry the filter has dropped meanwhile is not sent — its slot's
// storage holds another verb's completion now — and is recovered the
// same way.
func (t *Transport) sendCompletion(key substrate.DupKey) {
	delete(t.compQueued, key)
	e, ok := t.vdup.Lookup(key)
	if !ok || t.Halted() {
		return
	}
	dst, comp, aux := e.To, e.Reply, e.ReplyAux
	if dst < 0 || dst >= t.Size() || dst == t.Rank() {
		return
	}
	if buf := t.compPool.TryTake(len(comp)); buf != nil {
		copy(buf.Bytes(), comp)
		ss := t.staged(t.compPool, t.cqPort, buf)
		err := t.cqPort.SendFromKernelAux(myrinet.NodeID(dst), CQPort, buf, len(comp), aux, ss.done)
		if err == nil {
			t.Stats().BytesSent += int64(len(comp))
			return
		}
		t.freeSends = append(t.freeSends, ss)
		t.compPool.Put(buf)
		t.EnsureResume(t.cqPort)
	}
	t.compQueued[key] = true
	t.Proc().Sim().After(compRetry, t.compSend(key))
}
