package fastgm

import (
	"fmt"
	"slices"

	"repro/internal/gm"
	"repro/internal/msg"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// GM port assignment: the substrate needs exactly two ports regardless of
// cluster size (paper Section 2.2.1). Port 1 is the kernel's (Sockets-GM);
// it is unused in FAST/GM runs but kept reserved so both transports can
// coexist in one simulation.
const (
	AsyncPort = 2 // requests; asynchronous notification
	SyncPort  = 3 // replies; polled synchronously
)

// Frame tags prefixing every payload (transport-internal framing).
const (
	frameMsg  byte = 1 // body = encoded msg.Message
	frameRTS  byte = 2 // rendezvous request-to-send
	frameCTS  byte = 3 // rendezvous clear-to-send
	frameData byte = 4 // rendezvous bulk data (body = encoded msg.Message)
	frameHB   byte = 5 // liveness heartbeat (no body, never retransmitted)
)

// Transport is the FAST/GM substrate for one process: the shared protocol
// core (call table, duplicate filter, liveness — package substrate) over
// the GM wire this package implements.
type Transport struct {
	substrate.Core
	node *gm.Node
	cfg  Config

	asyncPort *gm.Port
	syncPort  *gm.Port

	sendPool  *SendPool      // registered send buffers
	freeSends []*pendingSend // send records no callback can reach, reused
	tokenCond *sim.Cond

	rv rendezvousState

	// Recovery state (recovery.go): the one-resume-per-port guard and the
	// cond senders park on while their port is disabled.
	resuming map[*gm.Port]bool
	portCond *sim.Cond

	hbBufs []*gm.Buffer // free registered heartbeat send buffers (liveness.go)
}

// New creates the substrate for process rank of size on a GM node, under
// the run's policy: heartbeat frames multiplexed over the async port
// (liveness.go) and the core's hedged calls.
func New(node *gm.Node, rank, size int, pol substrate.Policy, cfg Config) *Transport {
	t := &Transport{node: node, cfg: cfg, resuming: make(map[*gm.Port]bool)}
	// No user-level call clock: GM-level retransmission (recovery.go)
	// recovers lost frames below the core.
	t.Core.Init(t, rank, size, pol, substrate.Backoff{}, 0)
	return t
}

// MaxData returns the largest encoded message carried (one byte of each
// GM message is the frame tag).
func (t *Transport) MaxData() int { return t.node.System().Params().MaxMessage() - 1 }

// outstandingCalls returns the number of calls one process keeps in
// flight at once, the reply slots the sync port is provisioned for: n−1,
// since a read fault scatters at most one diff request per peer.
func (t *Transport) outstandingCalls() int { return max(t.Size()-1, 1) }

// ReplyFrames implements substrate.Transport: the sync port's free reply
// slots shared among the calls, ⌊(n−1)/calls⌋ at the default width. A lone
// call also takes the margin buffer — no other reply is in flight to need
// it — so at two nodes, one slot wide, a reply may still span two frames.
func (t *Transport) ReplyFrames(calls int) int {
	free := t.outstandingCalls() - t.OpenCalls()
	if calls == 1 && t.OpenCalls() == 0 {
		free++
	}
	return min(max(free/max(calls, 1), 1), substrate.MaxFrames)
}

// maxPrepostClass returns the largest class preposted (classes above use
// rendezvous when enabled).
func (t *Transport) maxPrepostClass() int {
	max := t.node.System().Params().MaxClass
	if t.cfg.Rendezvous && RendezvousClass-1 < max {
		return RendezvousClass - 1
	}
	return max
}

// Start opens the two ports, preposts receive buffers per the paper's
// strategy, allocates the registered send pool, and arms the selected
// asynchronous notification scheme.
func (t *Transport) Start(p *sim.Proc, h substrate.Handler) {
	t.Attach(p, h)
	t.tokenCond = sim.NewCond(fmt.Sprintf("fastgm:%d:tokens", t.Rank()))
	t.portCond = sim.NewCond(fmt.Sprintf("fastgm:%d:port", t.Rank()))
	t.rv.init(t)

	var err error
	if t.asyncPort, err = t.node.OpenPort(AsyncPort); err != nil {
		panic(fmt.Sprintf("fastgm: %v", err))
	}
	if t.syncPort, err = t.node.OpenPort(SyncPort); err != nil {
		panic(fmt.Sprintf("fastgm: %v", err))
	}

	params := t.node.System().Params()
	peers := max(t.Size()-1, 1)
	// Asynchronous port: o×(n−1) small request buffers per class, (n−1)
	// of each larger class (the barrier-response sizes).
	for c := params.MinClass; c <= t.maxPrepostClass(); c++ {
		count := peers
		if c <= SmallClassMax {
			count = t.cfg.SmallPerPeer * peers
		}
		t.asyncPort.ProvideReceiveBuffers(t.node.Register(p, count*gm.ClassCapacity(c)).Carve(c, count))
	}
	// Synchronous port: the scatter-gather fault path keeps up to
	// outstandingCalls() replies in flight at once, so each class preposts
	// one buffer per outstanding-call slot, plus one margin buffer so
	// recycling latency can never stall an ack.
	syncCount := t.outstandingCalls() + 1
	for c := params.MinClass; c <= t.maxPrepostClass(); c++ {
		t.syncPort.ProvideReceiveBuffers(t.node.Register(p, syncCount*gm.ClassCapacity(c)).Carve(c, syncCount))
	}
	// Registered send memory: one arena, room for one frame of each large
	// class and a few of each small. Senders copy outgoing messages in
	// (extra copy, unmodified TreadMarks — the paper's choice).
	t.sendPool = NewSendPool(fmt.Sprintf("fastgm:%d:sendpool", t.Rank()),
		t.node.Register(p, t.SendPoolBytes(1)))

	t.startLiveness()
	if t.Live.Enabled() {
		t.asyncPort.SetFilter(t.asyncNICFilter)
	}

	switch t.cfg.Scheme {
	case AsyncInterrupt:
		p.SetInterruptHandler(t.onAsyncInterrupt)
		t.asyncPort.EnableInterrupt(p)
	case AsyncPollingThread:
		p.SetInterruptHandler(t.onPollDetect)
		t.asyncPort.EnableInterrupt(p) // detection channel; cost differs
		p.SetComputeScale(t.cfg.PollComputeScale)
	case AsyncTimer:
		p.SetInterruptHandler(t.onPollDetect)
		t.armTimer()
	}
}

// Shutdown deregisters nothing explicitly (regions die with the run) but
// stops the timer scheme and the heartbeat clock.
func (t *Transport) Shutdown(p *sim.Proc) {
	t.rv.shutdown = true
	t.Live.Stop()
}

// armTimer schedules the periodic async-port check for AsyncTimer.
func (t *Transport) armTimer() {
	s := t.Proc().Sim()
	var tick func()
	tick = func() {
		if t.rv.shutdown {
			return
		}
		if t.asyncPort.TryPeek() {
			t.Proc().Interrupt(t.asyncPort)
		}
		s.After(t.cfg.TimerInterval, tick)
	}
	s.After(t.cfg.TimerInterval, tick)
}

// asyncNICFilter classifies async-port arrivals in NIC (scheduler)
// context, installed only with the liveness layer armed: any frame
// refreshes the peer's last-heard clock; a heartbeat is consumed here — it
// never occupies a host receive buffer and is heard even while the host
// computes with asynchronous delivery masked. Everything else flows to the
// host unchanged.
func (t *Transport) asyncNICFilter(rv *gm.Recv) bool {
	t.Live.Heard(int(rv.From))
	return len(rv.Data) > 0 && rv.Data[0] == frameHB
}

// onAsyncInterrupt services the NIC interrupt (paper's firmware mod).
func (t *Transport) onAsyncInterrupt(p *sim.Proc, payload any) {
	t.Stats().AsyncWakeups++
	p.Advance(t.asyncPort.InterruptCost())
	t.drainAsync(p)
}

// onPollDetect services a polling-thread or timer detection: cheaper
// dispatch, no interrupt cost.
func (t *Transport) onPollDetect(p *sim.Proc, payload any) {
	t.Stats().AsyncWakeups++
	p.Advance(PollDispatch)
	t.drainAsync(p)
}

// drainAsync processes every message pending on the async port.
func (t *Transport) drainAsync(p *sim.Proc) {
	for t.asyncPort.TryPeek() {
		rv := t.asyncPort.Poll(p)
		t.handleAsyncFrame(p, rv)
	}
}

// handleAsyncFrame dispatches one async-port message: a request frame, a
// rendezvous RTS, or rendezvous bulk data for a large request. Malformed
// frames are rejected (counted, buffer recycled), never fail-stop: on a
// faulty fabric the layer below may hand us anything.
//
// rv is its buffer's Recv, and a re-post may accept a parked message into
// that buffer and overwrite it: every field used after a re-post is read
// up front.
func (t *Transport) handleAsyncFrame(p *sim.Proc, rv *gm.Recv) {
	if len(rv.Data) == 0 {
		t.rejectFrame(p, rv, "empty")
		return
	}
	from, n := int(rv.From), len(rv.Data)
	t.Live.Heard(from)
	tag, body := rv.Data[0], rv.Data[1:]
	switch tag {
	case frameHB:
		// A heartbeat's arrival already refreshed the peer's last-heard
		// clock above; it carries nothing else.
		t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
	case frameMsg, frameData:
		p.Advance(DispatchCost)
		m, err := t.RequestDecoder(p).Decode(body)
		if err != nil {
			t.rejectFrame(p, rv, "decode")
			return
		}
		if e := t.Admit(p, m, rv.Aux, n); e != nil {
			// Recycle to the prepost ring, then answer idempotently. For a
			// duplicate rendezvous data frame the buffer stays in rv.pinned:
			// the duplicate may have consumed a buffer pinned for another
			// in-flight transfer of the same class, and re-preposting (rather
			// than deregistering) lets that transfer's retransmission land.
			t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
			t.AnswerDup(p, m, e)
			return
		}
		if tag == frameData {
			t.rv.finishReceive(p, t.asyncPort, rv.Buffer)
		} else {
			// Requests are processed in place (no copy); recycle the
			// buffer after the handler consumed the decoded form.
			t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
		}
		start := p.Now()
		t.Serve(p, m, n)
		t.Stats().RequestService += p.Now() - start
	case frameRTS:
		t.rv.onRTS(p, rv)
		t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
	case frameCTS:
		t.rv.onCTS(p, rv.Data[1:])
		t.asyncPort.ProvideReceiveBuffer(rv.Buffer)
	default:
		t.rejectFrame(p, rv, "tag")
	}
}

// AwaitReply implements substrate.Wire: poll the synchronous port for
// the next reply. GM-level retransmission (recovery.go) covers request
// frames below the core, so calls carry no user-level clock here: the
// wait is bounded only by a hedge deadline, and a peer's death wakes it
// through PeerGone.
func (t *Transport) AwaitReply(p *sim.Proc, deadline sim.Time, into *msg.Decoder) *msg.Message {
	if !p.InterruptsEnabled() {
		// The DSM must not await a reply while asynchronous delivery is
		// masked: the peer may need to serve our request via its own
		// handler, and (with rendezvous) our reply may need an RTS/CTS
		// exchange serviced by our handler.
		panic("fastgm: Collect with async delivery disabled")
	}
	var rv *gm.Recv
	if deadline > 0 {
		rv = t.syncPort.WaitRecvUntil(p, deadline)
	} else {
		rv = t.syncPort.WaitRecv(p)
	}
	if rv == nil {
		return nil
	}
	return t.recvSyncFrame(p, rv, into)
}

// recvSyncFrame decodes one synchronous-port arrival into a reply message
// in into's storage, or returns nil for a frame that must be skipped
// (malformed or corrupt), with the receive buffer recycled either way.
func (t *Transport) recvSyncFrame(p *sim.Proc, rv *gm.Recv, into *msg.Decoder) *msg.Message {
	t.Live.Heard(int(rv.From))
	var m *msg.Message
	if len(rv.Data) > 0 && (rv.Data[0] == frameMsg || rv.Data[0] == frameData) {
		// Replies are copied out of the receive buffer into TreadMarks
		// structures (the paper's extra-copy design).
		body := rv.Data[1:]
		p.Advance(DispatchCost + sim.BytesTime(len(body), CopyBandwidth))
		m, _ = into.Decode(body)
	}
	if m == nil {
		t.Stats().CorruptFrames++
		t.syncPort.ProvideReceiveBuffer(rv.Buffer)
		return nil
	}
	if cz := p.Sim().Causal(); cz != nil {
		m.Ctx = trace.DecodeCtx(rv.Aux)
		cz.Arrive(m.Ctx, p.ID(), int64(p.Now()))
	}
	t.Stats().BytesRecvd += int64(len(rv.Data))
	if rv.Data[0] == frameData {
		t.rv.finishReceive(p, t.syncPort, rv.Buffer)
	} else {
		t.syncPort.ProvideReceiveBuffer(rv.Buffer)
	}
	return m
}

// Transmit implements substrate.Wire: requests (first copies and relays
// alike) go to the peer's asynchronous port, replies to its synchronous
// port. The frame is staged into a registered send buffer and sent,
// applying the rendezvous protocol for oversized frames when enabled.
func (t *Transport) Transmit(p *sim.Proc, dst int, lane substrate.Lane, kind msg.Kind, body, aux []byte) {
	dstPort := AsyncPort
	if lane == substrate.LaneReply {
		dstPort = SyncPort
	}
	if lane == substrate.LaneRequest && t.OpenCalls() > t.outstandingCalls() {
		// One more reply than the sync port has buffers for would wait on a
		// missing buffer, then die as an unreachable peer.
		panic(fmt.Sprintf("fastgm: rank %d: %d calls in flight exceed the sync port's %d reply slots "+
			"(one per peer)", t.Rank(), t.OpenCalls(), t.outstandingCalls()))
	}
	n := len(body) + 1
	params := t.node.System().Params()
	if n > params.MaxMessage() {
		panic(fmt.Sprintf("fastgm: %v message of %d bytes exceeds TreadMarks' %d-byte cap "+
			"(too many consistency intervals in one exchange; coarsen the application's "+
			"synchronization grain)", kind, n, params.MaxMessage()))
	}
	class := params.ClassFor(n)
	if t.cfg.Rendezvous && class >= RendezvousClass {
		t.rv.sendLarge(p, dst, dstPort, body, aux)
		return
	}
	t.stage(p, dst, dstPort, frameMsg, body, aux)
}

// stage copies one tagged frame into a registered send buffer — the copy
// into registered memory of paper Section 2.2.3 — and hands it to GM.
func (t *Transport) stage(p *sim.Proc, dst, dstPort int, tag byte, body, aux []byte) {
	buf := t.TakeSendBuffer(p, t.sendPool, len(body)+1)
	buf.Bytes()[0] = tag
	p.Advance(sim.BytesTime(len(body), CopyBandwidth))
	copy(buf.Bytes()[1:], body)
	t.Stats().BytesSent += int64(len(body) + 1)
	t.gmSend(p, t.portFor(dstPort), dst, dstPort, buf, len(body)+1, aux)
}

// portFor returns our sending port for a destination port: requests go
// out the async port, replies out the sync port (each port has its own
// token pool, mirroring GM's per-port resources).
func (t *Transport) portFor(dstPort int) *gm.Port {
	if dstPort == AsyncPort {
		return t.asyncPort
	}
	return t.syncPort
}

// gmSend performs the GM send, waiting for tokens if necessary, and
// returns the buffer to the pool on completion. On a perfect fabric the
// preposting invariant means the completion always reports SendOK; on a
// faulty one the completion hands the frame to the recovery machinery
// (recovery.go) — resume the port, retransmit with backoff, let the
// receiver's duplicate filter absorb redeliveries.
func (t *Transport) gmSend(p *sim.Proc, port *gm.Port, dst, dstPort int, buf *gm.Buffer, n int, aux []byte) {
	ps := t.pendingSend(port, dst, dstPort, buf, n, aux)
	for {
		err := port.SendAux(p, myrinet.NodeID(dst), dstPort, buf, n, aux, ps.done)
		if err == nil {
			return
		}
		switch err {
		case gm.ErrNoSendTokens:
			p.WaitOn(t.tokenCond)
		case gm.ErrPortDisabled:
			t.AwaitResume(p, port)
		default:
			panic(fmt.Sprintf("fastgm: send: %v", err))
		}
	}
}

// SendPool is one process's registered send memory: a single region carved
// by message length. GM's size class belongs to the receive buffer a
// message lands in (gm derives it from the length), so send memory needs no
// partition by class and holds as many frames as fit. Free spans are kept
// sorted by offset, 8-byte aligned and coalesced as completions return
// them; a take is first fit from the bottom, which packs short frames low
// and leaves the top whole for a long one. Exported for substrates layered
// on this transport, which keep pools of their own.
//
// Takers are not queued. A pool has one process, so the only senders that
// can be parked on it are its mainline and its one interrupt handler above
// that, and the handler — the later arrival — has to finish first. Nor can
// a maximal frame starve behind the handler's short replies: each answers
// a caller blocked on it, so the bytes in flight are bounded by the peers'
// outstanding calls and return one completion later, and whoever waits for
// the long frame is blocked on it too.
type SendPool struct {
	mem  *gm.Memory
	free []span       // by offset; no two adjacent
	hdrs []*gm.Buffer // returned headers, reused so a send allocates none
	cond *sim.Cond
}

type span struct{ off, n int }

// NewSendPool returns a pool over all of mem.
func NewSendPool(name string, mem *gm.Memory) *SendPool {
	return &SendPool{mem: mem, free: []span{{0, mem.Size() &^ 7}}, cond: sim.NewCond(name)}
}

// SendPoolBytes sizes a send pool: room for four frames of each small
// class and large of each class above, whatever their actual mix.
func (t *Transport) SendPoolBytes(large int) (n int) {
	params := t.node.System().Params()
	for c := params.MinClass; c <= params.MaxClass; c++ {
		count := large
		if c <= SmallClassMax {
			count = 4
		}
		n += count * gm.ClassCapacity(c)
	}
	return n
}

// TryTake carves a buffer of at least n bytes out of the lowest free span
// that fits, or returns nil.
func (sp *SendPool) TryTake(n int) *gm.Buffer {
	n = (n + 7) &^ 7
	for i, f := range sp.free {
		if f.n < n {
			continue
		}
		if f.n == n {
			sp.free = slices.Delete(sp.free, i, i+1)
		} else {
			sp.free[i] = span{f.off + n, f.n - n}
		}
		var b *gm.Buffer
		if last := len(sp.hdrs) - 1; last >= 0 {
			b, sp.hdrs = sp.hdrs[last], sp.hdrs[:last]
		}
		return sp.mem.Span(b, f.off, n)
	}
	return nil
}

// Put returns a taken buffer's span, merging it with the free spans it
// touches, and wakes senders waiting for space.
func (sp *SendPool) Put(b *gm.Buffer) {
	s := span{b.Offset(), b.Len()}
	i, _ := slices.BinarySearchFunc(sp.free, s.off, func(f span, off int) int { return f.off - off })
	if i < len(sp.free) && s.off+s.n == sp.free[i].off {
		s.n += sp.free[i].n
		sp.free = slices.Delete(sp.free, i, i+1)
	}
	if i > 0 && sp.free[i-1].off+sp.free[i-1].n == s.off {
		sp.free[i-1].n += s.n
	} else {
		sp.free = slices.Insert(sp.free, i, s)
	}
	sp.hdrs = append(sp.hdrs, b)
	sp.cond.Broadcast()
}

// TakeSendBuffer carves a registered send buffer of n bytes out of pool,
// blocking until completions return enough space if it has none.
func (t *Transport) TakeSendBuffer(p *sim.Proc, pool *SendPool, n int) *gm.Buffer {
	start := p.Now()
	for {
		if b := pool.TryTake(n); b != nil {
			t.Stats().SendBufWait += p.Now() - start
			return b
		}
		t.Stats().SendBufStalls++
		if tr := p.Sim().Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.Now()), Layer: trace.LayerSubstrate,
				Kind: "sendbuf-stall", Proc: p.ID(), Peer: -1})
			tr.Metrics().Counter(trace.LayerSubstrate, "sendbuf.stalls").Inc(0)
		}
		p.WaitOn(pool.cond)
	}
}
