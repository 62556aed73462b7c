// Package sockets models the paper's baseline transport path: BSD UDP
// sockets provided by Myricom's Sockets-GM over the Myrinet fabric
// ("UDP/GM"). The kernel sits in the critical path — every send and
// receive pays syscall traps, user↔kernel copies, UDP/IP protocol
// processing, and receive-side interrupt plus (for asynchronous sockets)
// SIGIO signal delivery. Datagrams are unreliable: a full socket receive
// buffer drops the datagram silently, exactly the behaviour that made the
// paper's UDP/GM bandwidth "not measurable accurately".
//
// Internally each node's kernel owns GM port 1 with generously preposted,
// immediately recycled receive buffers, so GM-level sends never time out;
// unreliability only arises at the socket buffer, as in the real system.
package sockets

import (
	"errors"
	"fmt"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// KernelPort is the GM port number the kernel network stack owns.
const KernelPort = 1

// The kernel networking cost model (Linux 2.4 on a 700 MHz PIII): the
// testbed's calibrated constants. They give UDP/GM a one-way
// small-datagram latency of ≈35 µs (vs GM's 8.99 µs), with SIGIO delivery
// adding ≈12 µs more for asynchronous requests.
const (
	SyscallEntry      = 2 * sim.Microsecond // trap + return per socket call
	UDPSendProcessing = 8 * sim.Microsecond // UDP/IP encapsulation, routing, driver (tx)
	UDPRecvProcessing = 9 * sim.Microsecond // protocol processing on the receive path
	// CopyBandwidth is the effective per-side kernel payload bandwidth:
	// user↔kernel copy, UDP checksum pass, the Sockets-GM internal
	// re-copy into registered memory, and per-fragment IP processing,
	// folded into one term calibrated against period Sockets-GM
	// measurements (≈30 MB/s effective end-to-end for bulk payloads,
	// which is what made UDP/GM bandwidth "not measurable" in the paper).
	CopyBandwidth   = 35e6
	RxInterrupt     = 6 * sim.Microsecond   // NIC interrupt + softirq before data is visible
	SignalDelivery  = 12 * sim.Microsecond  // SIGIO dispatch to the user handler
	SelectOverhead  = 4 * sim.Microsecond   // select() syscall cost
	RecvBufDefault  = 64 * 1024             // every socket's receive buffer (bytes): the kernel default
	MaxDatagram     = 32*1024 - headerBytes // largest UDP datagram we model
	KernelClassRing = 8                     // kernel receive buffers preposted per class
)

const headerBytes = 4 // [2B src socket port][2B dst socket port]

// Errors returned by socket operations.
var (
	ErrPortInUse    = errors.New("sockets: port already bound")
	ErrNotBound     = errors.New("sockets: socket not bound")
	ErrTooLarge     = errors.New("sockets: datagram exceeds maximum size")
	ErrNoSuchSocket = errors.New("sockets: operation on closed socket")
)

// StackStats aggregates node-level socket statistics.
type StackStats struct {
	DatagramsRecvd  int64
	DatagramsDrop   int64 // dropped: receive buffer overflow
	DatagramsNoSock int64 // dropped: no socket bound to the port
	SigiosRaised    int64
}

// Stack is one node's kernel UDP implementation.
type Stack struct {
	s       *sim.Simulator
	node    *gm.Node
	port    *gm.Port
	sockets map[int]*Socket
	nextEph int
	stats   StackStats

	sendBufs [][]*txBuf    // [class] free kernel tx buffers
	txQueue  []pendingTx   // waiting for a tx buffer/token
	rxFree   []*rxDatagram // arrival records, reused with their bytes
	resume   func()        // st.resumeAndDrain, bound once
	selCond  *sim.Cond     // wakes Select callers on any arrival
}

// pendingTx is a datagram waiting for a tx buffer, a token or the port:
// the one send that owns a copy of its bytes (header and payload).
type pendingTx struct {
	dst     myrinet.NodeID
	payload []byte
	span    uint64
}

// txBuf is one registered kernel tx buffer with its GM completion bound
// once, at its first send (most of a ring never carries one).
type txBuf struct {
	st   *Stack
	b    *gm.Buffer
	done gm.SendCallback // tb.sent, once bound (callback)
}

// callback returns the buffer's GM completion, binding it the first time.
func (tb *txBuf) callback() gm.SendCallback {
	if tb.done == nil {
		tb.done = tb.sent
	}
	return tb.done
}

// rxDatagram is one arrival on the kernel port: its bytes, copied out of
// the GM receive buffer, then — after the interrupt delay — a datagram
// queued on its socket until a receive copies it out. The stack reuses it,
// byte buffer and all, once it is read or dropped.
type rxDatagram struct {
	st      *Stack
	data    []byte // header and payload, in a buffer grown to need
	src     myrinet.NodeID
	srcPort int
	span    uint64 // uncharged envelope metadata (causal trace span), or 0
	deliver func() // d.arrive, bound once
}

// payload is the datagram less its socket-port header.
func (d *rxDatagram) payload() []byte { return d.data[headerBytes:] }

// NewStack boots the kernel network stack on a GM node. It opens kernel
// port 1 and preposts recycled receive buffers for every size class.
func NewStack(s *sim.Simulator, node *gm.Node) *Stack {
	port, err := node.OpenPort(KernelPort)
	if err != nil {
		panic(fmt.Sprintf("sockets: kernel port: %v", err))
	}
	st := &Stack{
		s:       s,
		node:    node,
		port:    port,
		sockets: make(map[int]*Socket),
		nextEph: 49152,
	}
	st.resume = st.resumeAndDrain
	gmp := node.System().Params()
	st.sendBufs = make([][]*txBuf, gmp.MaxClass+1)
	for c := gmp.MinClass; c <= gmp.MaxClass; c++ {
		ring := KernelClassRing
		if c >= 13 {
			ring = 2 // few large buffers, like real kernels
		}
		port.ProvideReceiveBuffers(node.RegisterAtBoot(ring*gm.ClassCapacity(c)).Carve(c, ring))
		tx := node.RegisterAtBoot(ring*gm.ClassCapacity(c)).Carve(c, ring)
		tbs, free := make([]txBuf, ring), make([]*txBuf, ring)
		for i := range tbs {
			tb := &tbs[i]
			tb.st, tb.b = st, &tx[i]
			free[i] = tb
		}
		st.sendBufs[c] = free
	}
	port.SetSink(st.kernelRx)
	return st
}

// Stats returns a copy of the node's socket statistics.
func (st *Stack) Stats() StackStats { return st.stats }

// kernelRx runs in scheduler context when a UDP-bearing GM message
// arrives at the kernel port. The kernel copies the bytes out and recycles
// the GM buffer at once; after the modelled interrupt/softirq delay the
// datagram is appended to the bound socket's receive buffer (or dropped
// on overflow), waiters are woken, and SIGIO is raised if armed.
func (st *Stack) kernelRx(rv *gm.Recv) {
	var d *rxDatagram
	if n := len(st.rxFree); n > 0 {
		d, st.rxFree = st.rxFree[n-1], st.rxFree[:n-1]
	} else {
		d = &rxDatagram{st: st}
		d.deliver = d.arrive
	}
	d.data = append(d.data[:0], rv.Data...)
	d.span, d.src = rv.Span, rv.From
	st.port.ProvideReceiveBuffer(rv.Buffer) // kernel recycles immediately
	st.s.After(RxInterrupt, d.deliver)
}

// arrive is the datagram reaching the socket layer, RxInterrupt after the
// GM receive.
func (d *rxDatagram) arrive() {
	st := d.st
	if len(d.data) < headerBytes {
		st.recycleRx(d)
		return
	}
	d.srcPort = int(d.data[0])<<8 | int(d.data[1])
	dstPort := int(d.data[2])<<8 | int(d.data[3])
	n := len(d.payload())
	sk := st.sockets[dstPort]
	if sk == nil {
		st.stats.DatagramsNoSock++
		st.traceDrop("drop-nosock", d.src, n)
		st.recycleRx(d)
		return
	}
	if sk.queuedBytes+n > RecvBufDefault {
		st.stats.DatagramsDrop++
		sk.drops++
		st.traceDrop("drop-overflow", d.src, n)
		st.recycleRx(d)
		return
	}
	sk.queue = append(sk.queue, d)
	sk.queuedBytes += n
	st.stats.DatagramsRecvd++
	sk.cond.Broadcast()
	if st.selCond != nil {
		st.selCond.Broadcast()
	}
	if sk.sigioProc != nil {
		st.stats.SigiosRaised++
		if tr := st.s.Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(st.s.Now()), Layer: trace.LayerSockets,
				Kind: "sigio", Proc: sk.sigioProc.ID(), Peer: int(d.src)})
			tr.Metrics().Counter(trace.LayerSockets, "sigio").Inc(0)
		}
		sk.sigioProc.Interrupt(sk)
	}
}

// recycleRx returns an arrival record that was read or dropped.
func (st *Stack) recycleRx(d *rxDatagram) {
	st.rxFree = append(st.rxFree, d)
}

// traceDrop emits a structured event for a datagram lost on the receive
// path; kind names the cause.
func (st *Stack) traceDrop(kind string, src myrinet.NodeID, n int) {
	if tr := st.s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(st.s.Now()), Layer: trace.LayerSockets,
			Kind: kind, Proc: -1, Peer: int(src), Bytes: n})
		tr.Metrics().Counter(trace.LayerSockets, "drops").Inc(int64(n))
	}
}

// Socket creates an unbound UDP socket.
func (st *Stack) Socket(p *sim.Proc) *Socket {
	p.Advance(SyscallEntry)
	return &Socket{
		stack: st,
		port:  -1,
		cond:  sim.NewCond(fmt.Sprintf("udp:n%d:sock", st.node.ID())),
	}
}

// Socket is one UDP socket.
type Socket struct {
	stack       *Stack
	port        int
	queue       []*rxDatagram
	queuedBytes int
	cond        *sim.Cond
	sigioProc   *sim.Proc
	closed      bool
	drops       int64
}

// Drops returns the number of datagrams dropped at this socket.
func (sk *Socket) Drops() int64 { return sk.drops }

// Pending returns the number of queued datagrams (no cost: test hook).
func (sk *Socket) Pending() int { return len(sk.queue) }

// Bind attaches the socket to a UDP port on its node.
func (sk *Socket) Bind(p *sim.Proc, port int) error {
	p.Advance(SyscallEntry)
	if sk.closed {
		return ErrNoSuchSocket
	}
	if _, taken := sk.stack.sockets[port]; taken {
		return ErrPortInUse
	}
	if sk.port >= 0 {
		delete(sk.stack.sockets, sk.port)
	}
	sk.port = port
	sk.stack.sockets[port] = sk
	return nil
}

// BindEphemeral binds to a fresh ephemeral port and returns it.
func (sk *Socket) BindEphemeral(p *sim.Proc) int {
	for {
		port := sk.stack.nextEph
		sk.stack.nextEph++
		if sk.stack.nextEph > 65535 {
			sk.stack.nextEph = 49152
		}
		if err := sk.Bind(p, port); err == nil {
			return port
		}
	}
}

// SetSIGIO arms (or with nil disarms) SIGIO delivery for this socket:
// each arriving datagram interrupts proc with the *Socket as payload.
// The handler is expected to charge SignalDelivery on entry (the udpgm
// transport does).
func (sk *Socket) SetSIGIO(proc *sim.Proc) { sk.sigioProc = proc }

// Close unbinds and closes the socket. Blocked receivers are woken and
// observe ErrNoSuchSocket.
func (sk *Socket) Close(p *sim.Proc) {
	p.Advance(SyscallEntry)
	if sk.port >= 0 {
		delete(sk.stack.sockets, sk.port)
		sk.port = -1
	}
	sk.closed = true
	sk.cond.Broadcast()
}

// SendTo transmits one datagram. UDP semantics: it never blocks on the
// receiver; delivery is not guaranteed (the receiving socket buffer may
// overflow). The caller pays syscall + copy + protocol costs. span is a
// causal trace span (0 for none): it rides the datagram outside the billed
// bytes (it never changes any charge or any wire size) and surfaces
// through TryRecvFrom at the receiver. Retransmissions of the same logical
// datagram must resend the same span.
func (sk *Socket) SendTo(p *sim.Proc, dst myrinet.NodeID, dstPort int, data []byte, span uint64) error {
	st := sk.stack
	if sk.closed {
		return ErrNoSuchSocket
	}
	if len(data) > MaxDatagram {
		return ErrTooLarge
	}
	if sk.port < 0 {
		sk.BindEphemeral(p)
	}
	p.Advance(SyscallEntry +
		sim.BytesTime(len(data), CopyBandwidth) +
		UDPSendProcessing)

	if tr := st.s.Tracer(); tr != nil {
		tr.Metrics().Counter(trace.LayerSockets, "datagrams.sent").Inc(int64(len(data)))
	}
	st.transmit(p, dst, sk.port, dstPort, data, span)
	return nil
}

// datagram appends the wire form of a datagram — the socket ports, then
// the payload — to b.
func datagram(b []byte, srcPort, dstPort int, data []byte) []byte {
	b = append(b, byte(srcPort>>8), byte(srcPort), byte(dstPort>>8), byte(dstPort))
	return append(b, data...)
}

// transmit pushes a kernel datagram out through GM, staged straight into a
// free tx buffer of its class; if the kernel has none, or GM refuses the
// send, the datagram queues with a copy of its own.
func (st *Stack) transmit(p *sim.Proc, dst myrinet.NodeID, srcPort, dstPort int, data []byte, span uint64) {
	n := headerBytes + len(data)
	class := st.node.System().Params().ClassFor(n)
	if bufs := st.sendBufs[class]; len(bufs) > 0 {
		tb := bufs[len(bufs)-1]
		st.sendBufs[class] = bufs[:len(bufs)-1]
		datagram(tb.b.Bytes()[:0], srcPort, dstPort, data)
		if st.port.SendSpan(p, dst, KernelPort, tb.b, n, span, tb.callback()) == nil {
			return
		}
		// Token exhaustion or disabled port: the buffer goes back to the
		// pool and the datagram queues for completions or recovery to drain.
		st.sendBufs[class] = append(st.sendBufs[class], tb)
	}
	st.txQueue = append(st.txQueue, pendingTx{dst: dst, payload: datagram(nil, srcPort, dstPort, data), span: span})
}

// sent is one kernel GM send's completion: the tx buffer returns to the
// pool, and if the send failed with the port disabled (GM's resend
// timeout fired, or the disable cascaded into this in-flight send) the
// kernel transparently recovers the port after the probe delay. The
// datagram itself is not retried — UDP loss semantics — but queued
// traffic drains after the resume.
func (tb *txBuf) sent(status gm.SendStatus) {
	st, class := tb.st, tb.b.Class()
	st.sendBufs[class] = append(st.sendBufs[class], tb)
	if status != gm.SendOK && !st.port.Enabled() {
		st.s.After(st.node.System().Params().ResumeCost, st.resume)
		return
	}
	st.drainTxQueue()
}

// resumeAndDrain re-enables the kernel GM port without charging a process
// (the kernel's probe delay has already elapsed on the event clock) and
// sends what queued meanwhile.
func (st *Stack) resumeAndDrain() {
	st.port.ForceResume()
	st.drainTxQueue()
}

// drainTxQueue retries queued kernel transmissions. Runs in scheduler or
// proc context; GM costs for these deferred sends are charged to no
// process (kernel context), modelled by a zero-cost helper proc.
func (st *Stack) drainTxQueue() {
	for len(st.txQueue) > 0 {
		tx := st.txQueue[0]
		class := st.node.System().Params().ClassFor(len(tx.payload))
		bufs := st.sendBufs[class]
		if len(bufs) == 0 || st.port.Tokens() == 0 || !st.port.Enabled() {
			return
		}
		st.txQueue = st.txQueue[:copy(st.txQueue, st.txQueue[1:])]
		tb := bufs[len(bufs)-1]
		st.sendBufs[class] = bufs[:len(bufs)-1]
		copy(tb.b.Bytes(), tx.payload)
		st.port.SendFromKernel(tx.dst, KernelPort, tb.b, len(tx.payload), tx.span, tb.callback())
	}
}

// RecvFrom blocks until a datagram arrives, then copies it out. The
// caller pays syscall + protocol + copy costs. If buf is smaller than the
// datagram the datagram is truncated (UDP semantics).
func (sk *Socket) RecvFrom(p *sim.Proc, buf []byte) (n int, src myrinet.NodeID, srcPort int, err error) {
	if sk.closed {
		return 0, 0, 0, ErrNoSuchSocket
	}
	if sk.port < 0 {
		return 0, 0, 0, ErrNotBound
	}
	p.Advance(SyscallEntry)
	for len(sk.queue) == 0 {
		p.WaitOn(sk.cond)
		if sk.closed {
			return 0, 0, 0, ErrNoSuchSocket
		}
	}
	n, src, srcPort, _ = sk.dequeue(buf)
	p.Advance(UDPRecvProcessing + sim.BytesTime(n, CopyBandwidth))
	return n, src, srcPort, nil
}

// TryRecvFrom is RecvFrom without blocking, surfacing the datagram's
// causal trace span (0 when the sender attached none); ok reports whether
// a datagram was available.
func (sk *Socket) TryRecvFrom(p *sim.Proc, buf []byte) (n int, src myrinet.NodeID, srcPort int, span uint64, ok bool) {
	p.Advance(SyscallEntry)
	if len(sk.queue) == 0 {
		return 0, 0, 0, 0, false
	}
	n, src, srcPort, span = sk.dequeue(buf)
	p.Advance(UDPRecvProcessing + sim.BytesTime(n, CopyBandwidth))
	return n, src, srcPort, span, true
}

// dequeue copies the oldest queued datagram into buf, truncating it to
// buf's length, and recycles its record.
func (sk *Socket) dequeue(buf []byte) (n int, src myrinet.NodeID, srcPort int, span uint64) {
	d := sk.queue[0]
	sk.queue = sk.queue[:copy(sk.queue, sk.queue[1:])]
	sk.queuedBytes -= len(d.payload())
	n = copy(buf, d.payload())
	src, srcPort, span = d.src, d.srcPort, d.span
	sk.stack.recycleRx(d)
	return n, src, srcPort, span
}

// Select blocks until one of the sockets has a pending datagram or the
// deadline passes, returning the index of the first ready socket or -1.
// A deadline of sim.Infinity waits forever.
func Select(p *sim.Proc, socks []*Socket, deadline sim.Time) int {
	if len(socks) == 0 {
		return -1
	}
	st := socks[0].stack
	p.Advance(SelectOverhead)
	for {
		for i, sk := range socks {
			if len(sk.queue) > 0 {
				return i
			}
		}
		if p.Now() >= deadline {
			return -1
		}
		// All sockets share the node; waiting on the first socket's cond
		// is insufficient — build a wait that any arrival breaks. Each
		// socket broadcast wakes only its own cond, so wait on each in
		// turn cheaply via a shared kernel cond per stack.
		if deadline == sim.Infinity {
			p.WaitOn(st.selectCond())
		} else if !p.WaitOnUntil(st.selectCond(), deadline) && p.Now() >= deadline {
			return -1
		}
	}
}

// selectCond lazily creates the per-stack wakeup used by Select.
func (st *Stack) selectCond() *sim.Cond {
	if st.selCond == nil {
		st.selCond = sim.NewCond(fmt.Sprintf("udp:n%d:select", st.node.ID()))
	}
	return st.selCond
}
