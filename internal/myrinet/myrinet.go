// Package myrinet models the Myrinet interconnect of the paper's testbed:
// a wormhole-routed cut-through crossbar switch, full-duplex 2 Gb/s fiber
// links, and LANai-9 programmable NICs on a 66 MHz/64-bit PCI bus.
//
// The model is a per-packet pipeline over virtual time. Each directed
// resource (host→NIC DMA engine, LANai processor, the node's link in each
// direction, NIC→host DMA engine) has an occupancy horizon; a packet flows
// through the stages
//
//	txDMA → LANai(tx) → tx link → [wire+switch latency] → rx link →
//	LANai(rx) → rxDMA → deliver
//
// with each stage starting no earlier than both the previous stage's
// completion and the resource becoming free. This yields cut-through
// latency for small packets, pipelined streaming bandwidth limited by the
// slowest stage for large messages, and output-port contention when
// several senders target one receiver (their packets serialize on the
// receiver's link). Head-of-line backpressure into the fabric is not
// modelled; for the paper's single-switch 16-node fabric the output port
// is the only contention point that matters.
package myrinet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeID identifies a host on the fabric (equivalently, its GM node ID as
// assigned by the mapper).
type NodeID int

// The fabric cost model: the testbed's calibrated constants. They are
// set so that the GM layer above reproduces the paper's measured 8.99 µs
// one-way 1-byte latency and ≈235 MB/s peak bandwidth (Section 3.1).
const (
	LinkBandwidth  = 250e6                 // bytes/s per link direction (2 Gb/s)
	WireLatency    = 500 * sim.Nanosecond  // propagation + cut-through switch crossing
	MTU            = 4096                  // max packet payload bytes
	PacketHeader   = 16                    // wire header bytes per packet
	LanaiTx        = 2400 * sim.Nanosecond // LANai per-packet processing, send side
	LanaiRx        = 2400 * sim.Nanosecond // LANai per-packet processing, receive side
	TxDMABandwidth = 450e6                 // host→NIC DMA bytes/s (PCI 528 MB/s raw, ~85% efficiency)
	RxDMABandwidth = 450e6                 // NIC→host DMA bytes/s
	TxDMASetup     = 600 * sim.Nanosecond  // DMA descriptor setup per packet, send side
	RxDMASetup     = 600 * sim.Nanosecond  // DMA descriptor setup per packet, receive side
	SwitchArb      = sim.Microsecond       // per-packet arbitration gap on the tx link
)

// Params configure a fabric: what a run may change about the testbed.
type Params struct {
	// Faults is the fault-injection schedule (zero value: perfect fabric).
	Faults FaultConfig
}

// DefaultParams returns a perfect fabric.
func DefaultParams() Params { return Params{} }

// Packet is one wire packet (a message fragment). Fragmentation and
// reassembly are the responsibility of the layer above (GM).
//
// The packet a handler receives is the fabric's: it and its Payload are
// valid only while the handler runs, and then carry the next packet.
type Packet struct {
	Src      NodeID
	Dst      NodeID
	DstPort  int    // GM port on the destination
	MsgID    uint64 // message identifier for reassembly
	Frag     int    // fragment index within the message
	NumFrags int    // total fragments in the message
	MsgLen   int    // total message payload length
	Payload  []byte // this fragment's payload
	Meta     any    // opaque upper-layer tag (GM: the sender's send record)

	// In flight (the fabric's own packets only): the two NICs, the frame
	// check sequence when faults were on at injection, the delivery time,
	// and the next packet in flight to the same NIC.
	from, to *NIC
	crc      uint32
	crcOn    bool
	due      sim.Time
	next     *Packet
}

// resource is a single-server queue: an occupancy horizon in virtual time.
type resource struct {
	busyUntil sim.Time
}

// acquire reserves the resource for d starting no earlier than t, and
// returns the interval actually occupied.
func (r *resource) acquire(t sim.Time, d sim.Time) (start, end sim.Time) {
	start = t
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + d
	r.busyUntil = end
	return start, end
}

// NICStats counts traffic through one NIC.
type NICStats struct {
	PacketsSent  int64
	PacketsRecvd int64
	BytesSent    int64 // payload bytes
	BytesRecvd   int64
	WireBytes    int64 // payload + per-packet headers, sent direction
}

// NIC is one node's network interface. SetHandler installs the upper
// layer's delivery function, which runs in scheduler context at the
// packet's delivery time.
type NIC struct {
	fabric  *Fabric
	id      NodeID
	handler func(*Packet)

	txDMA   resource
	lanaiTx resource
	txLink  resource
	rxLink  resource
	lanaiRx resource
	rxDMA   resource

	// The packets in flight to this NIC, in injection order. That is also
	// their delivery order, because the rxDMA horizon only rises, so one
	// delivery callback bound once (arriveHead) serves every packet.
	head, tail *Packet
	arrive     func()

	stats NICStats
}

// Stats returns a copy of the NIC's traffic counters.
func (n *NIC) Stats() NICStats { return n.stats }

// SetHandler installs the packet delivery callback (the GM endpoint).
func (n *NIC) SetHandler(h func(*Packet)) { n.handler = h }

// Fabric is the switch plus all NICs.
type Fabric struct {
	s    *sim.Simulator
	nics []*NIC
	free []*Packet // delivered and dropped packets, reused by SendPacket
	made int       // packets made, free or not: what the next slab doubles

	faults   FaultConfig
	faultsOn bool
	fstats   FaultStats
}

// NewFabric builds a fabric of n nodes attached to one crossbar switch.
func NewFabric(s *sim.Simulator, p Params, n int) *Fabric {
	f := &Fabric{s: s}
	f.SetFaults(p.Faults)
	for i := 0; i < n; i++ {
		nic := &NIC{fabric: f, id: NodeID(i)}
		nic.arrive = nic.arriveHead
		f.nics = append(f.nics, nic)
	}
	return f
}

// Nodes returns the number of hosts on the fabric.
func (f *Fabric) Nodes() int { return len(f.nics) }

// NIC returns node id's interface.
func (f *Fabric) NIC(id NodeID) *NIC {
	return f.nics[id]
}

// SendPacket injects one packet at the current virtual time and schedules
// its delivery at the receiver. The packet is copied, payload and all, into
// one of the fabric's own, so callers may reuse theirs immediately (GM send
// buffers are recycled on the send-complete callback, which fires when the
// tx link drains).
//
// It returns the time at which the sending NIC is done with the packet
// (send-complete from the host's point of view: DMA + LANai + link
// drained), which the GM layer uses to fire send callbacks.
func (n *NIC) SendPacket(pkt *Packet) (txDone sim.Time) {
	f := n.fabric
	if pkt.Dst < 0 || int(pkt.Dst) >= len(f.nics) {
		panic(fmt.Sprintf("myrinet: packet to unknown node %d", pkt.Dst))
	}
	if len(pkt.Payload) > MTU {
		panic(fmt.Sprintf("myrinet: packet payload %d exceeds MTU %d", len(pkt.Payload), MTU))
	}
	dst := f.nics[pkt.Dst]
	now := f.s.Now()

	cp := f.packet()
	payload := cp.Payload
	*cp = *pkt
	cp.Payload = append(payload[:0], pkt.Payload...)
	cp.from, cp.to = n, dst

	// Fault injection (faults.go). The decision is made at injection time
	// with deterministic RNG draws; a perfect fabric never reaches this
	// code's RNG or CRC paths, so fault-free runs are bit-identical to a
	// fabric without fault support.
	var inj injection
	if cp.crcOn = f.faultsOn; cp.crcOn {
		cp.crc = packetCRC(cp.Payload)
		inj = f.inject(now, n.id, cp.Dst, cp.Payload, &cp.crc)
	}

	wireBytes := len(cp.Payload) + PacketHeader

	// Host memory → NIC SRAM.
	_, e1 := n.txDMA.acquire(now, TxDMASetup+sim.BytesTime(wireBytes, TxDMABandwidth))
	// LANai builds and launches the packet.
	_, e2 := n.lanaiTx.acquire(e1, LanaiTx)
	// Serialize onto our link (plus switch arbitration overhead).
	s3, e3 := n.txLink.acquire(e2, sim.BytesTime(wireBytes, LinkBandwidth)+SwitchArb)

	n.stats.PacketsSent++
	n.stats.BytesSent += int64(len(cp.Payload))
	n.stats.WireBytes += int64(wireBytes)

	if inj.drop {
		// The sender pays the full tx pipeline, but the packet vanishes in
		// the fabric: no rx-side resources, no delivery. The layer above
		// only learns via its own timeout machinery (GM resend timeout).
		f.recycle(cp)
		return e3
	}

	// Cut-through: the head flit reaches the destination link after the
	// wire+switch latency (plus any injected latency spike); the
	// destination link then serializes the body.
	headAt := s3 + WireLatency + inj.delay
	_, e4 := dst.rxLink.acquire(headAt, sim.BytesTime(wireBytes, LinkBandwidth))
	// Receive-side LANai processing, then DMA into a host buffer.
	_, e5 := dst.lanaiRx.acquire(e4, LanaiRx)
	_, e6 := dst.rxDMA.acquire(e5, RxDMASetup+sim.BytesTime(wireBytes, RxDMABandwidth))

	if tr := f.s.Tracer(); tr != nil {
		// One span per packet covering injection to host-memory delivery
		// (the full pipeline occupancy, including any contention stalls).
		tr.Emit(trace.Event{T: int64(now), Dur: int64(e6 - now),
			Layer: trace.LayerMyrinet, Kind: "packet",
			Proc: -1, Peer: int(pkt.Dst), Bytes: wireBytes})
		reg := tr.Metrics()
		reg.Counter(trace.LayerMyrinet, "packets").Inc(int64(wireBytes))
		reg.Histogram(trace.LayerMyrinet, "txlink.occupancy.ns").Observe(int64(e3 - s3))
	}

	cp.due = e6
	if dst.tail == nil {
		dst.head = cp
	} else {
		dst.tail.next = cp
	}
	dst.tail = cp
	f.s.At(e6, dst.arrive)
	return e3
}

// packet takes a free packet. A dry free list first grows by as many
// packets as the fabric has made, in one allocation, so a burst's peak in
// flight costs a logarithmic number of slabs, besides each new packet's
// payload buffer.
func (f *Fabric) packet() *Packet {
	if len(f.free) == 0 {
		slab := make([]Packet, max(f.made, 1))
		f.made += len(slab)
		for i := range slab {
			f.free = append(f.free, &slab[i])
		}
	}
	n := len(f.free)
	pkt := f.free[n-1]
	f.free = f.free[:n-1]
	return pkt
}

// recycle returns a packet the fabric is done with; its payload buffer
// stays with it, grown to the largest fragment it has carried.
func (f *Fabric) recycle(pkt *Packet) {
	pkt.Meta = nil
	f.free = append(f.free, pkt)
}

// arriveHead delivers the packet at the head of the NIC's in-flight queue,
// in scheduler context. It is due now, or the queue's order is not the
// order of delivery.
func (n *NIC) arriveHead() {
	pkt, now := n.head, n.fabric.s.Now()
	if pkt == nil || pkt.due != now {
		panic(fmt.Sprintf("myrinet: node %d: delivery at %v finds no packet due then", n.id, now))
	}
	if n.head = pkt.next; n.head == nil {
		n.tail = nil
	}
	pkt.next = nil
	pkt.arrive()
}

// arrive is a packet's delivery at the receiving host, in scheduler context.
func (pkt *Packet) arrive() {
	f, src, dst := pkt.from.fabric, pkt.from, pkt.to
	defer f.recycle(pkt)
	if pkt.crcOn && packetCRC(pkt.Payload) != pkt.crc {
		// The NIC's frame check sequence catches in-flight corruption;
		// the packet is discarded before GM ever sees it.
		f.fstats.CRCDrops++
		f.traceFault("crc-drop", src.id, dst.id, len(pkt.Payload))
		return
	}
	dst.stats.PacketsRecvd++
	dst.stats.BytesRecvd += int64(len(pkt.Payload))
	if dst.handler == nil {
		panic(fmt.Sprintf("myrinet: node %d has no packet handler", dst.id))
	}
	dst.handler(pkt)
}
