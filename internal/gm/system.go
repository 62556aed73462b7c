package gm

import (
	"fmt"
	"slices"

	"repro/internal/myrinet"
	"repro/internal/sim"
)

// NumPorts is the number of GM ports per node. Port 0 is reserved for the
// mapper, leaving seven usable ports — the constraint that forces the
// paper's substrate to multiplex all peers over two ports. The mapper
// itself (probing the fabric and distributing routes at boot) is not
// modelled: node IDs are the fabric's NIC numbers.
const NumPorts = 8

// MapperPort is the reserved port: no application may open it.
const MapperPort = 0

// System is the GM installation across the fabric: one endpoint per node.
type System struct {
	s      *sim.Simulator
	fabric *myrinet.Fabric
	params Params
	nodes  []*Node
}

// NewSystem attaches a GM endpoint to every NIC on the fabric.
func NewSystem(s *sim.Simulator, fabric *myrinet.Fabric, params Params) *System {
	sys := &System{s: s, fabric: fabric, params: params}
	for i := 0; i < fabric.Nodes(); i++ {
		n := &Node{sys: sys, id: myrinet.NodeID(i), nic: fabric.NIC(myrinet.NodeID(i))}
		n.reassembly = make(map[reassemblyKey]*partialMsg)
		sys.nodes = append(sys.nodes, n)
		n.nic.SetHandler(n.handlePacket)
	}
	return sys
}

// Params returns the GM cost model in use.
func (sys *System) Params() Params { return sys.params }

// Node returns the GM endpoint for a node ID.
func (sys *System) Node(id myrinet.NodeID) *Node { return sys.nodes[id] }

// Node is one host's GM endpoint.
type Node struct {
	sys            *System
	id             myrinet.NodeID
	nic            *myrinet.NIC
	ports          [NumPorts]*Port
	nextMsgID      uint64
	pinnedBytes    int64
	maxPinnedBytes int64
	reassembly     map[reassemblyKey]*partialMsg
	free           []*partialMsg // reassembly records, reused with their buffers
}

type reassemblyKey struct {
	src   myrinet.NodeID
	msgID uint64
}

// partialMsg is one message at the receiving node: its fragments being
// reassembled (a multi-fragment one in the node's reassembly map), then,
// complete, parked on its port until a buffer of its class is posted. What
// the receiver needs of the sender's record — class, source port, span — is
// copied here at the first fragment, while the record is certainly the
// sender's still; the record itself is kept only to acknowledge it, and
// only if it still holds msgID. The node reuses it, data buffer and all,
// once the message is accepted, expires or has no port to go to.
type partialMsg struct {
	src      myrinet.NodeID
	msgID    uint64
	data     []byte // the message, in a buffer grown to the largest one carried
	received int
	dstPort  int
	class    int
	srcPort  int
	span     uint64
	rec      *sendRecord

	port    *Port      // where it is parked
	timeout *sim.Event // the park's expiry (a Timer), while parked
	expire  func()     // pm.expired, bound once
}

// ID returns the node's GM node ID, its NIC's number on the fabric.
func (n *Node) ID() myrinet.NodeID { return n.id }

// System returns the owning GM system.
func (n *Node) System() *System { return n.sys }

// OpenPort opens a GM port on the node. Port 0 is reserved for the
// mapper; opening it, an out-of-range port, or an already-open port is an
// error.
func (n *Node) OpenPort(id int) (*Port, error) {
	if id <= MapperPort || id >= NumPorts {
		return nil, fmt.Errorf("gm: port %d out of range (1..%d usable)", id, NumPorts-1)
	}
	if n.ports[id] != nil {
		return nil, fmt.Errorf("gm: port %d already open on node %d", id, n.id)
	}
	p := &Port{
		node:    n,
		id:      id,
		tokens:  n.sys.params.SendTokens,
		enabled: true,
		rxCond:  sim.NewCond(fmt.Sprintf("gm:n%d:p%d:rx", n.id, id)),
		posted:  make(map[int][]*Buffer),
		parked:  make(map[int][]*partialMsg),
	}
	n.ports[id] = p
	return p, nil
}

// Port returns the open port with the given id, or nil.
func (n *Node) Port(id int) *Port {
	if id < 0 || id >= NumPorts {
		return nil
	}
	return n.ports[id]
}

// handlePacket reassembles fragments and hands complete messages to the
// destination port. Runs in scheduler context at packet delivery time; the
// packet is the fabric's and is read here only.
func (n *Node) handlePacket(pkt *myrinet.Packet) {
	rec, _ := pkt.Meta.(*sendRecord)
	var pm *partialMsg
	key := reassemblyKey{src: pkt.Src, msgID: pkt.MsgID}
	if pkt.NumFrags == 1 {
		pm = n.partial(pkt, rec)
	} else if pm = n.reassembly[key]; pm == nil {
		pm = n.partial(pkt, rec)
		n.reassembly[key] = pm
		if n.sys.fabric.FaultsEnabled() {
			// On a lossy fabric a sibling fragment may never arrive; reclaim
			// the entry once the sender has certainly given up (its resend
			// timer fired), so partial messages cannot accumulate forever.
			n.sys.s.After(n.sys.params.ResendTimeout, func() {
				if n.reassembly[key] == pm {
					delete(n.reassembly, key)
					n.recycle(pm)
				}
			})
		}
	}
	if rec != nil {
		rec.landed()
	}
	copy(pm.data[pkt.Frag*myrinet.MTU:], pkt.Payload)
	pm.received++
	if pm.received < pkt.NumFrags {
		return
	}
	if pkt.NumFrags > 1 {
		delete(n.reassembly, key)
	}
	port := n.Port(pm.dstPort)
	if port == nil {
		// No such port open: nothing will ever accept the message, and the
		// sender's resend timer (armed at send time) notices.
		n.recycle(pm)
		return
	}
	port.arrive(pm)
}

// partial takes a free reassembly record for the message pkt starts,
// copying out of the sender's record what the receiver will need.
func (n *Node) partial(pkt *myrinet.Packet, rec *sendRecord) *partialMsg {
	var pm *partialMsg
	if k := len(n.free); k > 0 {
		pm, n.free = n.free[k-1], n.free[:k-1]
	} else {
		pm = new(partialMsg)
		pm.expire = pm.expired
	}
	pm.src, pm.msgID, pm.dstPort, pm.received = pkt.Src, pkt.MsgID, pkt.DstPort, 0
	pm.data = slices.Grow(pm.data[:0], pkt.MsgLen)[:pkt.MsgLen]
	pm.class, pm.srcPort, pm.span, pm.rec = 0, 0, 0, rec
	if rec != nil {
		pm.class, pm.srcPort, pm.span = rec.class, rec.port.id, rec.span
	}
	return pm
}

// recycle returns a reassembly record no one holds any more.
func (n *Node) recycle(pm *partialMsg) {
	pm.rec, pm.port = nil, nil
	n.free = append(n.free, pm)
}

// sendRecord is one GM send, from Send until it is resolved — acknowledged,
// timed out or aborted — and no longer referenced: a port reuses it only
// when it is resolved, every fragment it put on the wire has landed at the
// receiver, and no acknowledgement is on its way. A fragment the fabric
// lost never lands, so its record is never reused; the garbage collector
// takes it. Anything that finds the record later — a parked message
// accepted after the sender gave up — checks that it still holds the
// message's msgID before acting on it.
type sendRecord struct {
	port  *Port // sending port
	cb    SendCallback
	msgID uint64
	class int    // receive size class, derived from the length
	span  uint64 // uncharged observation metadata (causal trace span)

	timeout *sim.Event // the resend timeout (a Timer), until resolved
	wire    int        // fragments sent and not yet landed at the receiver
	ackDue  bool       // an accept scheduled onAck
	done    bool       // resolved: acknowledged, timed out or aborted

	onTimeout func() // r.timedOut, bound once
	onAck     func() // r.acked, bound once
}

// landed notes that one of the record's fragments reached the receiver.
func (r *sendRecord) landed() {
	r.wire--
	r.recycle()
}

// recycle returns the record to its port once nothing can reach it.
func (r *sendRecord) recycle() {
	if r.done && r.wire == 0 && !r.ackDue {
		r.cb = nil
		r.port.free = append(r.port.free, r)
	}
}
