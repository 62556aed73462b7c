package fastgm

import (
	"bytes"
	"encoding/binary"

	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The rendezvous protocol (paper Section 2.2.2): to avoid preposting
// buffers for the largest size classes on every port, a sender first
// sends a small RTS describing the message; the receiver pins a buffer of
// the exact class on demand, preposts it to the target port, and answers
// with a CTS; the sender then ships the bulk data, which lands in the
// just-pinned buffer. The receiver deregisters the buffer after the
// message is consumed.
//
// Both RTS and CTS travel on the asynchronous (interrupting) port, so no
// process ever blocks waiting for a rendezvous control frame: the sender
// stages the payload and continues; the CTS interrupt triggers the bulk
// transfer. This keeps the protocol deadlock-free even when both sides
// are inside request handlers.
type rendezvousState struct {
	t        *Transport
	nextID   uint32
	staged   map[uint32]*stagedSend
	pinned   map[*gm.Buffer]*gm.Memory
	shutdown bool

	// seenRTS filters redelivered RTS frames by (src, id) so a duplicate
	// cannot pin a second buffer; FIFO-bounded like the request filter.
	seenRTS  map[uint64]bool
	rtsOrder []uint64
}

// rtsFilterMax bounds seenRTS (ids are per-sender monotonic, so old
// entries are never consulted again once the transfer completed).
const rtsFilterMax = 4096

type stagedSend struct {
	dst     int
	dstPort int
	body    []byte
	span    uint64 // causal trace span, shipped with the data frame
}

func (rv *rendezvousState) init(t *Transport) {
	rv.t = t
	rv.staged = make(map[uint32]*stagedSend)
	rv.pinned = make(map[*gm.Buffer]*gm.Memory)
	rv.seenRTS = make(map[uint64]bool)
}

// sendLarge stages a copy of body — the transfer outlives Transmit, and
// the caller's frame does not — and sends the RTS. The bulk transfer
// completes asynchronously when the CTS arrives.
func (rv *rendezvousState) sendLarge(p *sim.Proc, dst, dstPort int, body []byte, span uint64) {
	t := rv.t
	t.Stats().RendezvousRTS++
	if tr := p.Sim().Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.Now()), Layer: trace.LayerSubstrate,
			Kind: "rendezvous-rts", Proc: p.ID(), Peer: dst, Bytes: len(body)})
	}
	id := rv.nextID
	rv.nextID++
	rv.staged[id] = &stagedSend{dst: dst, dstPort: dstPort, body: bytes.Clone(body), span: span}

	class := t.node.System().Params().ClassFor(len(body) + 1)
	var ctrl [6]byte
	binary.LittleEndian.PutUint32(ctrl[:], id)
	ctrl[4] = byte(class)
	ctrl[5] = byte(dstPort)
	t.rawSend(p, dst, AsyncPort, frameRTS, ctrl[:])
}

// onRTS runs in the receiver's interrupt context: pin a buffer of the
// announced class, prepost it to the announced port, and send the CTS.
// The registration cost lands on the receiving process — the overhead
// the paper trades for the smaller pinned footprint. Malformed RTS
// frames are rejected; redelivered ones are dropped (the first pin and
// CTS stand — our CTS send is itself covered by GM-level recovery).
func (rv *rendezvousState) onRTS(p *sim.Proc, recv *gm.Recv) {
	t := rv.t
	body := recv.Data[1:]
	if len(body) < 6 {
		t.Stats().CorruptFrames++
		return
	}
	id := binary.LittleEndian.Uint32(body)
	class := int(body[4])
	dstPort := int(body[5])
	if class < 0 || class > t.node.System().Params().MaxClass ||
		(dstPort != AsyncPort && dstPort != SyncPort) {
		t.Stats().CorruptFrames++
		return
	}
	key := uint64(recv.From)<<32 | uint64(id)
	if rv.seenRTS[key] {
		t.Stats().DupRequests++
		return
	}
	if len(rv.rtsOrder) >= rtsFilterMax {
		delete(rv.seenRTS, rv.rtsOrder[0])
		rv.rtsOrder = rv.rtsOrder[:copy(rv.rtsOrder, rv.rtsOrder[1:])]
	}
	rv.seenRTS[key] = true
	rv.rtsOrder = append(rv.rtsOrder, key)

	mem := t.node.Register(p, gm.ClassCapacity(class))
	buf := mem.SubBuffer(0, class)
	rv.pinned[buf] = mem
	t.portFor(dstPort).ProvideReceiveBuffer(buf)

	var ctrl [4]byte
	binary.LittleEndian.PutUint32(ctrl[:], id)
	t.rawSend(p, int(recv.From), AsyncPort, frameCTS, ctrl[:])
}

// onCTS runs in the original sender's interrupt context: ship the staged
// bulk data to the now-pinned buffer. A CTS with no staged transfer is a
// duplicate (GM-level redelivery) — the data already shipped.
func (rv *rendezvousState) onCTS(p *sim.Proc, body []byte) {
	t := rv.t
	if len(body) < 4 {
		t.Stats().CorruptFrames++
		return
	}
	id := binary.LittleEndian.Uint32(body)
	st := rv.staged[id]
	if st == nil {
		t.Stats().DupRequests++
		return
	}
	delete(rv.staged, id)

	t.stage(p, st.dst, st.dstPort, frameData, st.body, st.span)
}

// finishReceive deregisters the dynamically pinned buffer a rendezvous
// data frame landed in. A data frame in a non-pinned buffer (possible
// only for malformed traffic) is recycled to port's prepost ring instead
// of fail-stopping.
func (rv *rendezvousState) finishReceive(p *sim.Proc, port *gm.Port, buf *gm.Buffer) {
	mem := rv.pinned[buf]
	if mem == nil {
		rv.t.Stats().CorruptFrames++
		port.ProvideReceiveBuffer(buf)
		return
	}
	delete(rv.pinned, buf)
	mem.Deregister(p)
}

// rawSend ships a small transport-control frame.
func (t *Transport) rawSend(p *sim.Proc, dst, dstPort int, tag byte, body []byte) {
	n := len(body) + 1
	buf := t.TakeSendBuffer(p, t.sendPool, n)
	buf.Bytes()[0] = tag
	copy(buf.Bytes()[1:], body)
	t.Stats().BytesSent += int64(n)
	// Control frames (RTS/CTS) are transport plumbing, not causal edges.
	t.gmSend(p, t.portFor(dstPort), dst, dstPort, buf, n, 0)
}
