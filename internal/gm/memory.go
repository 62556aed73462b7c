package gm

import (
	"fmt"

	"repro/internal/sim"
)

// PageSize is the host page size used for pin accounting.
const PageSize = 4096

// Memory is a registered (pinned) memory region. GM can only send from
// and receive into registered memory; registration costs virtual time and
// counts against the node's pinned-byte budget, the resource the paper's
// rendezvous option conserves.
type Memory struct {
	node       *Node
	buf        []byte
	registered bool
}

// Bytes exposes the region's storage.
func (m *Memory) Bytes() []byte { return m.buf }

// Registered reports whether the region is currently pinned.
func (m *Memory) Registered() bool { return m.registered }

// Deregister unpins the region, charging the (cheaper) unpin cost.
func (m *Memory) Deregister(p *sim.Proc) {
	if !m.registered {
		return
	}
	m.registered = false
	m.node.pinnedBytes -= int64(len(m.buf))
	pages := (len(m.buf) + PageSize - 1) / PageSize
	p.Advance(m.node.sys.params.RegisterBase + sim.Time(pages)*m.node.sys.params.RegisterPerPage/2)
}

// Register pins a fresh region of the given size on the node, charging
// registration cost to the calling process.
func (n *Node) Register(p *sim.Proc, size int) *Memory {
	if size < 0 {
		panic(fmt.Sprintf("gm: Register(%d)", size))
	}
	pages := (size + PageSize - 1) / PageSize
	p.Advance(n.sys.params.RegisterBase + sim.Time(pages)*n.sys.params.RegisterPerPage)
	m := &Memory{node: n, buf: make([]byte, size), registered: true}
	n.pinnedBytes += int64(size)
	if n.pinnedBytes > n.maxPinnedBytes {
		n.maxPinnedBytes = n.pinnedBytes
	}
	return m
}

// RegisterAtBoot pins a region without charging any process — used for
// memory the kernel pins once at boot (the Sockets-GM kernel pools).
func (n *Node) RegisterAtBoot(size int) *Memory {
	m := &Memory{node: n, buf: make([]byte, size), registered: true}
	n.pinnedBytes += int64(size)
	if n.pinnedBytes > n.maxPinnedBytes {
		n.maxPinnedBytes = n.pinnedBytes
	}
	return m
}

// PinnedBytes returns the node's currently pinned byte count.
func (n *Node) PinnedBytes() int64 { return n.pinnedBytes }

// MaxPinnedBytes returns the high-water mark of pinned bytes on the node,
// used by the rendezvous ablation (E5) to compare memory footprints.
func (n *Node) MaxPinnedBytes() int64 { return n.maxPinnedBytes }

// Buffer is a send or receive buffer carved from registered memory. A
// receive buffer is tagged with the size class it is preposted under; a
// send buffer needs none (see Span).
type Buffer struct {
	mem   *Memory
	class int
	off   int
	data  []byte
}

// Class returns the buffer's size class (0 for a Span, which has none).
func (b *Buffer) Class() int { return b.class }

// Offset returns where in its region the buffer starts.
func (b *Buffer) Offset() int { return b.off }

// Bytes exposes the buffer's storage (capacity 2^class, or a Span's length).
func (b *Buffer) Bytes() []byte { return b.data }

// AllocBuffer registers and returns a buffer of the given size class.
func (n *Node) AllocBuffer(p *sim.Proc, class int) *Buffer {
	if class < n.sys.params.MinClass || class > n.sys.params.MaxClass {
		panic(fmt.Sprintf("gm: AllocBuffer class %d out of range", class))
	}
	mem := n.Register(p, ClassCapacity(class))
	return &Buffer{mem: mem, class: class, data: mem.Bytes()}
}

// SubBuffer carves a buffer of the given class out of an existing
// registered region at the given offset, without further registration
// cost. Used to slice one large registered pool into many buffers.
func (m *Memory) SubBuffer(off, class int) *Buffer {
	end := off + ClassCapacity(class)
	if off < 0 || end > len(m.buf) {
		panic("gm: SubBuffer out of range")
	}
	if !m.registered {
		panic("gm: SubBuffer of deregistered memory")
	}
	return &Buffer{mem: m, class: class, off: off, data: m.buf[off:end:end]}
}

// Span points b (a fresh header when nil; a pool recycles them so a send
// allocates none) at the n bytes at off of the region, as a send buffer.
// It has no size class: in GM the class belongs to the receive buffer a
// message lands in and a send derives it from the message length, so
// registered send memory can be carved to any length.
func (m *Memory) Span(b *Buffer, off, n int) *Buffer {
	if off < 0 || n < 0 || off+n > len(m.buf) {
		panic("gm: Span out of range")
	}
	if b == nil {
		b = new(Buffer)
	}
	*b = Buffer{mem: m, off: off, data: m.buf[off : off+n : off+n]}
	return b
}
