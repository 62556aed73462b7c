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
// The fault-recovery contract matches fastgm's: initiator-side verb
// retransmission with exponential backoff (a lost completion is
// recovered by re-posting the verb), a target-side (origin, seq)
// duplicate filter that makes redelivery idempotent — a redelivered stale
// Put must not overwrite a newer one; its cached completion is resent —
// and give-ups that feed the shared liveness state, so chaos and crash
// sweeps run unchanged.
package rdmagm

import (
	"fmt"

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

// verbFlowWindow is the per-QP verb credit budget when end-to-end flow
// control (Config.Fast.Flow) is enabled: small enough that n−1 initiators
// incasting at one target cannot overrun its verb ring, large enough to
// keep the wire pipelined for a single initiator.
const verbFlowWindow = 4

// Transport is the RDMA/GM substrate for one process.
type Transport struct {
	*fastgm.Transport
	node *gm.Node
	rcfg Config

	verbPort *gm.Port
	cqPort   *gm.Port

	// windows is the target-side registration table: window id → host
	// memory the NIC may DMA against.
	windows map[int32][]byte

	sendPool  *fastgm.SendPool // registered verb-descriptor send buffers
	compPool  *fastgm.SendPool // firmware completion staging buffers
	tokenCond *sim.Cond

	vdup *substrate.DupCache // target-side duplicate-verb filter

	verbs   map[uint32]*pendingVerb // seq → outstanding verb
	qpDepth []int                   // per-dst outstanding verbs (QP send queue fill)
	vseq    uint32

	// credits is the verb flow window (nil with flow control off): one
	// lane metered in outstanding verbs. A verb is only "done" once the
	// target NIC serviced it, so the CQ completion is what carries the
	// credit back, and the wait for one is reaping the CQ.
	credits *substrate.Credits

	onDeadChain func(peer int, err error)
}

// pendingVerb is one outstanding one-sided verb (substrate.PendingVerb).
type pendingVerb struct {
	dst       int
	seq       uint32
	op        byte
	frame     []byte // encoded descriptor, kept for retransmission
	aux       []byte // causal-context metadata, resent with every retransmit
	data      []byte // Get payload once resolved
	err       error
	done      bool
	attempts  int
	issued    sim.Time
	completed sim.Time
}

func (pv *pendingVerb) Dst() int            { return pv.dst }
func (pv *pendingVerb) Done() bool          { return pv.done }
func (pv *pendingVerb) Err() error          { return pv.err }
func (pv *pendingVerb) Data() []byte        { return pv.data }
func (pv *pendingVerb) Issued() sim.Time    { return pv.issued }
func (pv *pendingVerb) Completed() sim.Time { return pv.completed }

// New creates the substrate for process rank of size on a GM node.
func New(node *gm.Node, rank, size int, cfg Config) *Transport {
	t := &Transport{
		Transport: fastgm.New(node, rank, size, cfg.Fast),
		node:      node,
		rcfg:      cfg,
		windows:   make(map[int32][]byte),
		vdup:      substrate.NewDupCache(cfg.DupCacheSize),
		verbs:     make(map[uint32]*pendingVerb),
		qpDepth:   make([]int, size),
	}
	if t.credits = t.NewCredits(cfg.Fast.Flow, fmt.Sprintf("rdmagm:%d:credits", rank),
		[]int{verbFlowWindow}, []int{1}); t.credits != nil {
		t.credits.Park = t.reapOne
	}
	return t
}

// MaxVerbPayload returns the largest Put payload (and Get length) one
// verb carries.
func (t *Transport) MaxVerbPayload() int {
	return t.node.System().Params().MaxMessage() - verbHeaderLen
}

// Start starts the embedded two-sided transport, then opens the verb and
// completion ports, preposts their receive rings, allocates the verb
// send pool, and installs the firmware sink.
func (t *Transport) Start(p *sim.Proc, h substrate.Handler) {
	t.Transport.Start(p, h)
	t.sendPool = fastgm.NewSendPool(fmt.Sprintf("rdmagm:%d:sendpool", t.Rank()))
	t.compPool = fastgm.NewSendPool(fmt.Sprintf("rdmagm:%d:comppool", t.Rank()))
	t.tokenCond = sim.NewCond(fmt.Sprintf("rdmagm:%d:tokens", t.Rank()))

	var err error
	if t.verbPort, err = t.node.OpenPort(VerbPort); err != nil {
		panic(fmt.Sprintf("rdmagm: %v", err))
	}
	if t.cqPort, err = t.node.OpenPort(CQPort); err != nil {
		panic(fmt.Sprintf("rdmagm: %v", err))
	}

	params := t.node.System().Params()
	// Verb port: the sink recycles each buffer synchronously at arrival,
	// so a small ring per class suffices regardless of cluster size.
	for c := params.MinClass; c <= params.MaxClass; c++ {
		mem := t.node.Register(p, 4*gm.ClassCapacity(c))
		for i := 0; i < 4; i++ {
			t.verbPort.ProvideReceiveBuffer(mem.SubBuffer(i*gm.ClassCapacity(c), c))
		}
	}
	// CQ port: one entry per send-queue slot plus margin; completions
	// beyond that park briefly until WaitVerbs reaps.
	cqCount := t.rcfg.SendQueueDepth + 2
	for c := params.MinClass; c <= params.MaxClass; c++ {
		mem := t.node.Register(p, cqCount*gm.ClassCapacity(c))
		for i := 0; i < cqCount; i++ {
			t.cqPort.ProvideReceiveBuffer(mem.SubBuffer(i*gm.ClassCapacity(c), c))
		}
	}
	// Registered send pool for verb descriptors.
	for c := params.MinClass; c <= params.MaxClass; c++ {
		count := 2
		if c <= t.rcfg.Fast.SmallClassMax {
			count = 4
		}
		t.sendPool.Fill(t.node.Register(p, count*gm.ClassCapacity(c)), count, c)
	}
	// Completion entries ship from the firmware's own staging pool, pinned
	// at boot like the kernel pools — never from the verb send pool. The
	// separation is load-bearing under loss: a lost data-verb frame pins
	// its buffer for GM's full resend timeout, and if completions competed
	// for those buffers a burst of losses would silence the completion
	// channel exactly when the initiator's retry clock is running.
	for c := params.MinClass; c <= params.MaxClass; c++ {
		count := 2
		if c <= t.rcfg.Fast.SmallClassMax {
			count = 4
		}
		t.compPool.Fill(t.node.RegisterAtBoot(count*gm.ClassCapacity(c)), count, c)
	}

	t.verbPort.SetSink(t.onVerbFrame)
	if t.rcfg.Fast.Liveness.Enabled {
		// One-sided traffic proves the initiator alive at NIC level, even
		// while this host computes with asynchronous delivery masked.
		t.cqPort.SetFilter(func(rv *gm.Recv) bool {
			t.Live.Heard(int(rv.From))
			return false
		})
	}
	// Interpose on the dead-peer callback so outstanding verbs toward a
	// peer the liveness layer declares dead are abandoned before the
	// DSM's watchdog runs.
	t.Transport.SetOnPeerDead(func(peer int, err error) {
		t.abandonVerbsTo(peer, err)
		if t.onDeadChain != nil {
			t.onDeadChain(peer, err)
		}
	})
}

// SetOnPeerDead implements substrate.CrashControl, preserving the verb
// abandonment interposition installed by Start.
func (t *Transport) SetOnPeerDead(fn func(peer int, err error)) { t.onDeadChain = fn }

// ForgetPeer implements substrate.MemberControl: the embedded purge
// (duplicate cache, pending calls) plus the one-sided state — the
// verb duplicate filter keyed by the departed origin, and any verbs
// still outstanding toward it (SetViewExchange is inherited from the
// embedded fastgm transport, whose heartbeats this substrate shares).
func (t *Transport) ForgetPeer(peer int) {
	t.vdup.PurgeOrigin(int32(peer))
	t.abandonVerbsTo(peer, &substrate.PeerUnreachableError{Rank: t.Rank(), Peer: peer, Kind: "member-departed"})
	t.Transport.ForgetPeer(peer)
}

// Halt implements substrate.CrashControl: the embedded teardown plus the
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
		t.node.Register(p, len(mem))
	}
	t.windows[id] = mem
}

// PostPut implements substrate.OneSided.
func (t *Transport) PostPut(p *sim.Proc, dst int, window int32, off int, data []byte) substrate.PendingVerb {
	st := t.Stats()
	st.OneSidedPuts++
	st.OneSidedBytesPut += int64(len(data))
	// The staging copy into the registered descriptor (the payload rides
	// the frame; windows on the initiator side need no registration).
	p.Advance(sim.BytesTime(len(data), t.rcfg.Fast.CopyBandwidth))
	return t.post(p, dst, &verbFrame{op: frameVerbPut, window: window, off: off,
		length: len(data), payload: data})
}

// PostGet implements substrate.OneSided.
func (t *Transport) PostGet(p *sim.Proc, dst int, window int32, off, n int) substrate.PendingVerb {
	st := t.Stats()
	st.OneSidedGets++
	st.OneSidedBytesGot += int64(n)
	return t.post(p, dst, &verbFrame{op: frameVerbGet, window: window, off: off, length: n})
}

// post applies flow control, assigns the verb its sequence number,
// transmits the descriptor, and arms the retransmission timer.
func (t *Transport) post(p *sim.Proc, dst int, vf *verbFrame) substrate.PendingVerb {
	if dst == t.Rank() {
		panic("rdmagm: one-sided verb to self")
	}
	if n := verbFrameLen(vf); n > t.node.System().Params().MaxMessage() {
		panic(fmt.Sprintf("rdmagm: %d-byte verb exceeds the %d-byte frame cap",
			n, t.node.System().Params().MaxMessage()))
	}
	// Flow control, end to end then per QP. With Config.Fast.Flow on, the
	// verb first takes a credit from a window well under the ring depth —
	// the one-sided analogue of the two-sided credit ledger: an incast of
	// Puts self-paces at the initiators instead of flooding the target's
	// verb ring, and the stalls are counted as credit stalls so overload
	// shows up in the same place on every substrate. Then the QP itself:
	// a full send queue reaps completions until a slot frees (or every
	// outstanding verb toward a dead peer resolves).
	t.credits.Acquire(p, dst, 0, 1, verbFrameLen(vf))
	for t.qpDepth[dst] >= t.rcfg.SendQueueDepth {
		if !t.reapDead() {
			t.reapOne(p)
		}
	}
	t.vseq++
	vf.origin = int32(t.Rank())
	vf.seq = t.vseq
	pv := &pendingVerb{dst: dst, seq: vf.seq, op: vf.op, issued: p.Now()}
	pv.frame = make([]byte, verbFrameLen(vf))
	encodeVerb(pv.frame, vf)
	if cz := p.Sim().Causal(); cz != nil {
		// A verb is always posted from the initiator's mainline (there is
		// no handler-context posting path).
		ctx := cz.Edge("verb:"+verbName(vf.op), t.Rank(), dst, p.ID(),
			cz.Cur(t.Rank()).Span, len(pv.frame), int64(p.Now()))
		pv.aux = trace.EncodeCtx(ctx)
	}
	t.verbs[pv.seq] = pv
	t.qpDepth[dst]++
	if t.Live.Dead(dst) {
		t.abandonVerb(pv, "peer-dead")
		return pv
	}
	t.sendVerb(p, pv)
	t.armVerbTimer(pv)
	return pv
}

// sendVerb transmits the descriptor from process context, waiting for
// tokens or a port resume like any GM send.
func (t *Transport) sendVerb(p *sim.Proc, pv *pendingVerb) {
	class := t.node.System().Params().ClassFor(len(pv.frame))
	buf := t.TakeSendBuffer(p, t.sendPool, class)
	copy(buf.Bytes(), pv.frame)
	t.Stats().BytesSent += int64(len(pv.frame))
	for {
		err := t.verbPort.SendAux(p, myrinet.NodeID(pv.dst), VerbPort, buf, len(pv.frame),
			pv.aux, t.verbSendCompletion(buf, class, pv.dst))
		if err == nil {
			return
		}
		switch err {
		case gm.ErrNoSendTokens:
			p.WaitOn(t.tokenCond)
		case gm.ErrPortDisabled:
			t.AwaitResume(p, t.verbPort)
		default:
			panic(fmt.Sprintf("rdmagm: send: %v", err))
		}
	}
}

// verbSendCompletion recycles the descriptor buffer; a failed send only
// resumes the port — retransmission is driven by the verb timer, which
// re-stages the kept frame into a fresh buffer.
func (t *Transport) verbSendCompletion(buf *gm.Buffer, class, dst int) gm.SendCallback {
	return func(st gm.SendStatus) {
		t.sendPool.Put(class, buf)
		t.tokenCond.Broadcast()
		if st != gm.SendOK && !t.Halted() {
			t.Stats().GMSendFailures++
			t.EnsureResume(t.verbPort)
		}
	}
}

// armVerbTimer schedules the next completion-timeout check for pv.
func (t *Transport) armVerbTimer(pv *pendingVerb) {
	d := substrate.Backoff{Initial: t.rcfg.VerbTimeout, Max: t.rcfg.VerbTimeoutMax}.Delay(pv.attempts + 1)
	t.Proc().Sim().After(d, func() { t.verbTick(pv) })
}

// verbTick retransmits a verb whose completion has not arrived, from
// kernel/event context, with exponential backoff; past the retry budget
// the target is declared dead through the shared liveness state.
func (t *Transport) verbTick(pv *pendingVerb) {
	if pv.done || t.Halted() {
		return
	}
	if t.Live.Dead(pv.dst) {
		t.abandonVerb(pv, "peer-dead")
		return
	}
	if pv.attempts >= t.rcfg.MaxVerbRetries {
		// Retry exhaustion alone does not prove death. Under loss the
		// target's completion channel can starve for seconds — a few lost
		// completion frames pin its send buffers for GM's full resend
		// timeout — while its two-sided retransmissions keep arriving here
		// and refreshing its last-heard clock. A peer we can still hear is
		// congested, not dead: extend the budget at max backoff and let the
		// GM timeout free the far side. Only silence for the grace window
		// corroborates.
		grace := t.node.System().Params().ResendTimeout
		if t.rcfg.Fast.Liveness.Enabled {
			grace = t.rcfg.Fast.Liveness.Norm().Deadline()
		}
		if !t.Live.HeardWithin(pv.dst, grace) {
			t.abandonVerb(pv, "verb-retry-exhausted")
			return
		}
		// Hand back one attempt and fall through to the retransmit below:
		// the budget holds at the cap, every extension retries at the
		// maximum backoff, and the silence check above re-runs each tick.
		t.Stats().VerbRetryExtensions++
		pv.attempts--
	}
	// Only a frame actually handed to GM consumes retry budget. A stall —
	// port disabled, no tokens, pool dry — re-arms without spending it:
	// GM's 3s resend timeout holds the tokens of lost frames far longer
	// than the whole backoff schedule, and burning the budget while
	// waiting for them back would turn a transient storm into a false
	// peer death.
	if !t.verbPort.Enabled() {
		t.EnsureResume(t.verbPort)
		t.armVerbTimer(pv)
		return
	}
	class := t.node.System().Params().ClassFor(len(pv.frame))
	buf := t.sendPool.TryTake(class)
	if buf == nil {
		t.armVerbTimer(pv)
		return
	}
	copy(buf.Bytes(), pv.frame)
	err := t.verbPort.SendFromKernelAux(myrinet.NodeID(pv.dst), VerbPort, buf, len(pv.frame),
		pv.aux, t.verbSendCompletion(buf, class, pv.dst))
	if err != nil {
		t.sendPool.Put(class, buf)
		if err == gm.ErrPortDisabled {
			t.EnsureResume(t.verbPort)
		}
		t.armVerbTimer(pv)
		return
	}
	pv.attempts++
	st := t.Stats()
	st.VerbRetransmits++
	st.BytesSent += int64(len(pv.frame))
	s := t.Proc().Sim()
	if tr := s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(s.Now()), Layer: trace.LayerSubstrate,
			Kind: "verb-retransmit", Proc: -1, Peer: pv.dst, Bytes: len(pv.frame)})
		tr.Metrics().Counter(trace.LayerSubstrate, "verb.retransmits").Inc(1)
	}
	t.armVerbTimer(pv)
}

// resolve marks pv complete and frees its QP slot (exactly once).
func (t *Transport) resolve(pv *pendingVerb) {
	if pv.done {
		return
	}
	pv.done = true
	pv.completed = t.Proc().Sim().Now()
	t.qpDepth[pv.dst]--
	t.credits.Release(pv.dst, 0, 1)
	delete(t.verbs, pv.seq)
}

// abandonVerb gives up on pv with a typed failure and (for exhausted
// retries) declares the target dead so everything else gives up too.
func (t *Transport) abandonVerb(pv *pendingVerb, kind string) {
	t.Stats().VerbsAbandoned++
	pv.err = &substrate.PeerUnreachableError{Rank: t.Rank(), Peer: pv.dst, Attempts: pv.attempts, Kind: kind}
	t.resolve(pv)
	s := t.Proc().Sim()
	if tr := s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(s.Now()), Layer: trace.LayerSubstrate,
			Kind: "verb-abandoned:" + kind, Proc: -1, Peer: pv.dst})
		tr.Metrics().Counter(trace.LayerSubstrate, "verbs.abandoned").Inc(1)
	}
	t.Live.DeclareDead(pv.dst, kind, pv.attempts)
}

// abandonVerbsTo resolves every outstanding verb toward a dead or
// departed peer with err, in sequence order for determinism.
func (t *Transport) abandonVerbsTo(peer int, err error) {
	for _, seq := range substrate.KeysWhere(t.verbs, func(pv *pendingVerb) bool { return pv.dst == peer }) {
		pv := t.verbs[seq]
		t.Stats().VerbsAbandoned++
		pv.err = err
		t.resolve(pv)
	}
}

// reapDead resolves outstanding verbs whose targets are now dead;
// returns whether any were resolved.
func (t *Transport) reapDead() bool {
	seqs := substrate.KeysWhere(t.verbs, func(pv *pendingVerb) bool { return t.Live.Dead(pv.dst) })
	for _, seq := range seqs {
		t.abandonVerb(t.verbs[seq], "peer-dead")
	}
	return len(seqs) > 0
}

// WaitVerbs implements substrate.OneSided: reap the completion queue
// until every verb resolves. Legal with asynchronous delivery masked —
// completion arrival never involves the async request port, and the
// target never needs our handler.
func (t *Transport) WaitVerbs(p *sim.Proc, verbs []substrate.PendingVerb) error {
	for t.unresolvedVerbs(verbs) > 0 {
		t.reapOne(p)
	}
	for _, v := range verbs {
		if err := v.Err(); err != nil {
			return err
		}
	}
	return nil
}

// unresolvedVerbs counts still-outstanding entries, first giving up on
// any whose target has been declared dead.
func (t *Transport) unresolvedVerbs(verbs []substrate.PendingVerb) int {
	n := 0
	for _, v := range verbs {
		pv, ok := v.(*pendingVerb)
		if !ok {
			panic("rdmagm: WaitVerbs on a foreign PendingVerb")
		}
		if pv.done {
			continue
		}
		if t.Live.Dead(pv.dst) {
			t.abandonVerb(pv, "peer-dead")
			continue
		}
		n++
	}
	return n
}

// reapOne blocks on the CQ port for one arrival, sliced so give-ups
// (liveness detection, retry exhaustion) are noticed promptly.
func (t *Transport) reapOne(p *sim.Proc) {
	slice := t.rcfg.VerbTimeout
	if t.rcfg.Fast.Liveness.Enabled {
		slice = t.rcfg.Fast.Liveness.Norm().Interval
	}
	rv := t.cqPort.WaitRecvUntil(p, p.Now()+slice)
	if rv == nil {
		return
	}
	t.handleCompletion(p, rv)
}

// handleCompletion consumes one CQ entry in initiator context.
func (t *Transport) handleCompletion(p *sim.Proc, rv *gm.Recv) {
	st := t.Stats()
	t.Live.Heard(int(rv.From))
	if len(rv.Data) == 0 || rv.Data[0] != frameCompletion {
		st.CorruptFrames++
		t.cqPort.ProvideReceiveBuffer(rv.Buffer)
		return
	}
	p.Advance(t.rcfg.CompletionCost)
	cf, err := decodeCompletion(rv.Data)
	if err != nil {
		st.CorruptFrames++
		t.cqPort.ProvideReceiveBuffer(rv.Buffer)
		return
	}
	st.BytesRecvd += int64(len(rv.Data))
	cz := p.Sim().Causal()
	if cz != nil {
		cz.Arrive(trace.DecodeCtx(rv.Aux), p.ID(), int64(p.Now()))
	}
	pv := t.verbs[cf.seq]
	if pv == nil || pv.done || pv.op != cf.op {
		// A duplicate completion (verb retransmitted after the original
		// completion was already matched), or one for an abandoned verb.
		st.StaleCompletions++
		if tr := p.Sim().Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.Now()), Layer: trace.LayerSubstrate,
				Kind: "stale-completion", Proc: p.ID(), Peer: int(cf.from)})
		}
		t.cqPort.ProvideReceiveBuffer(rv.Buffer)
		return
	}
	switch cf.status {
	case compOK:
		switch pv.op {
		case frameVerbGet:
			// The payload was DMA'd into initiator memory; copy it out of
			// the receive ring before recycling (no host-copy charge — the
			// consumer's own memcpy is the host cost).
			pv.data = append([]byte(nil), cf.payload...)
		}
	default:
		pv.err = &substrate.WindowBoundsError{Peer: pv.dst, Window: cf.window,
			Off: cf.off, Len: cf.length, Size: int(cf.size)}
	}
	t.resolve(pv)
	if cz != nil {
		if ctx := trace.DecodeCtx(rv.Aux); !ctx.Zero() {
			// The matched completion is what unblocks WaitVerbs' mainline.
			cz.SetCur(t.Rank(), ctx)
		}
	}
	if tr := p.Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(pv.issued), Dur: int64(pv.completed - pv.issued),
			Layer: trace.LayerSubstrate, Kind: "verb:" + verbName(pv.op),
			Proc: p.ID(), Peer: pv.dst, Bytes: len(rv.Data)})
	}
	t.cqPort.ProvideReceiveBuffer(rv.Buffer)
}

func verbName(op byte) string {
	switch op {
	case frameVerbPut:
		return "put"
	case frameVerbGet:
		return "get"
	default:
		return "unknown"
	}
}

// onVerbFrame is the verb-port sink: NIC-firmware verb service at the
// target, in scheduler context — no host CPU, no interrupt, no handler.
func (t *Transport) onVerbFrame(rv *gm.Recv) {
	st := t.Stats()
	t.Live.Heard(int(rv.From))
	if len(rv.Data) == 0 {
		st.CorruptFrames++
		t.verbPort.ProvideReceiveBuffer(rv.Buffer)
		return
	}
	vf, err := decodeVerb(rv.Data)
	if err != nil {
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
		if e.Done {
			t.sendCompletion(e.To, e.Reply, e.ReplyAux)
		}
		return
	}
	e := t.vdup.Insert(key)

	var comp []byte
	var dmaBytes int
	win, ok := t.windows[vf.window]
	switch {
	case !ok:
		st.WindowFaults++
		comp = encodeCompletion(int32(t.Rank()), vf, compBadWindow, nil, -1)
	case vf.off < 0 || vf.length < 0 || vf.off+vf.length > len(win):
		st.WindowFaults++
		comp = encodeCompletion(int32(t.Rank()), vf, compOOB, nil, int64(len(win)))
	default:
		switch vf.op {
		case frameVerbPut:
			copy(win[vf.off:vf.off+vf.length], vf.payload)
			dmaBytes = vf.length
			comp = encodeCompletion(int32(t.Rank()), vf, compOK, nil, 0)
		case frameVerbGet:
			snap := append([]byte(nil), win[vf.off:vf.off+vf.length]...)
			dmaBytes = vf.length
			comp = encodeCompletion(int32(t.Rank()), vf, compOK, snap, 0)
		}
	}
	// Firmware service + DMA latency, then the completion entry.
	delay := t.rcfg.NICServiceCost + sim.BytesTime(dmaBytes, t.rcfg.DMABandwidth)
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
	e.Done = true
	e.Reply = comp
	e.ReplyAux = compAux
	e.To = int(vf.origin)
	t.verbPort.ProvideReceiveBuffer(rv.Buffer)

	t.Proc().Sim().After(delay, func() { t.sendCompletion(dst, comp, compAux) })
}

// sendCompletion ships one CQ entry from kernel/event context,
// best-effort with a short retry when buffers or tokens are dry: a lost
// completion is recovered by the initiator's verb retransmission.
func (t *Transport) sendCompletion(dst int, comp, aux []byte) {
	if t.Halted() || dst < 0 || dst >= t.Size() || dst == t.Rank() {
		return
	}
	class := t.node.System().Params().ClassFor(len(comp))
	buf := t.compPool.TryTake(class)
	if buf == nil {
		t.Proc().Sim().After(compRetry, func() { t.sendCompletion(dst, comp, aux) })
		return
	}
	copy(buf.Bytes(), comp)
	err := t.cqPort.SendFromKernelAux(myrinet.NodeID(dst), CQPort, buf, len(comp), aux,
		func(st gm.SendStatus) {
			t.compPool.Put(class, buf)
			t.tokenCond.Broadcast()
			if st != gm.SendOK && !t.Halted() {
				t.Stats().GMSendFailures++
				t.EnsureResume(t.cqPort)
			}
		})
	if err != nil {
		t.compPool.Put(class, buf)
		if err == gm.ErrPortDisabled {
			t.EnsureResume(t.cqPort)
		}
		t.Proc().Sim().After(compRetry, func() { t.sendCompletion(dst, comp, aux) })
		return
	}
	t.Stats().BytesSent += int64(len(comp))
}
