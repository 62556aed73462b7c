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
// rendezvous option conserves. Both are charged for the region's size when
// it is registered. The host bytes behind it are another matter: the
// simulator makes them at the first Bytes, so a preposted slab, send arena
// or kernel ring that never carries a message costs the host nothing while
// it counts, pinned, against the node.
type Memory struct {
	node       *Node
	size       int
	buf        []byte // nil until the first Bytes, unless pinned over the caller's memory
	registered bool
}

// Size returns the region's length in bytes without touching its storage.
func (m *Memory) Size() int { return m.size }

// Bytes exposes the region's storage.
func (m *Memory) Bytes() []byte {
	if m.buf == nil && m.size > 0 {
		m.buf = make([]byte, m.size)
	}
	return m.buf
}

// Deregister unpins the region, charging the (cheaper) unpin cost.
func (m *Memory) Deregister(p *sim.Proc) {
	if !m.registered {
		return
	}
	m.registered = false
	m.node.pinnedBytes -= int64(m.size)
	pages := (m.size + PageSize - 1) / PageSize
	p.Advance(m.node.sys.params.RegisterBase + sim.Time(pages)*m.node.sys.params.RegisterPerPage/2)
}

// Register pins a fresh region of the given size on the node, charging
// registration cost to the calling process.
func (n *Node) Register(p *sim.Proc, size int) *Memory {
	if size < 0 {
		panic(fmt.Sprintf("gm: Register(%d)", size))
	}
	return n.pin(p, &Memory{node: n, size: size})
}

// Pin registers memory the caller already owns — an RDMA window over an
// application's region — at Register's cost for its length.
func (n *Node) Pin(p *sim.Proc, mem []byte) *Memory {
	return n.pin(p, &Memory{node: n, size: len(mem), buf: mem})
}

// RegisterAtBoot pins a region without charging any process — used for
// memory the kernel pins once at boot (the Sockets-GM kernel pools).
func (n *Node) RegisterAtBoot(size int) *Memory {
	return n.pin(nil, &Memory{node: n, size: size})
}

// pin registers m: the calling process, if there is one, pays for its pages,
// and the node counts its bytes as pinned.
func (n *Node) pin(p *sim.Proc, m *Memory) *Memory {
	if p != nil {
		pages := (m.size + PageSize - 1) / PageSize
		p.Advance(n.sys.params.RegisterBase + sim.Time(pages)*n.sys.params.RegisterPerPage)
	}
	m.registered = true
	n.pinnedBytes += int64(m.size)
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

// Buffer is a send or receive buffer carved from registered memory: n bytes
// at off of its region, resolved when they are read, so carving one does not
// back the region. A receive buffer is tagged with the size class it is
// preposted under, and carries the Recv of the message that lands in it;
// a send buffer needs neither (see Span).
type Buffer struct {
	mem   *Memory
	class int
	off   int
	n     int
	recv  Recv
}

// Class returns the buffer's size class (0 for a Span, which has none).
func (b *Buffer) Class() int { return b.class }

// Offset returns where in its region the buffer starts.
func (b *Buffer) Offset() int { return b.off }

// Len returns the buffer's capacity in bytes (2^class, or a Span's length).
func (b *Buffer) Len() int { return b.n }

// Bytes exposes the buffer's storage, all Len bytes of it.
func (b *Buffer) Bytes() []byte {
	end := b.off + b.n
	return b.mem.Bytes()[b.off:end:end]
}

// AllocBuffer registers and returns a buffer of the given size class.
func (n *Node) AllocBuffer(p *sim.Proc, class int) *Buffer {
	if class < n.sys.params.MinClass || class > n.sys.params.MaxClass {
		panic(fmt.Sprintf("gm: AllocBuffer class %d out of range", class))
	}
	mem := n.Register(p, ClassCapacity(class))
	return &Buffer{mem: mem, class: class, n: mem.size}
}

// SubBuffer carves a buffer of the given class out of an existing
// registered region at the given offset, without further registration
// cost. Used to slice one large registered pool into many buffers.
func (m *Memory) SubBuffer(off, class int) *Buffer {
	end := off + ClassCapacity(class)
	if off < 0 || end > m.size {
		panic("gm: SubBuffer out of range")
	}
	if !m.registered {
		panic("gm: SubBuffer of deregistered memory")
	}
	return &Buffer{mem: m, class: class, off: off, n: end - off}
}

// Carve cuts count receive buffers of the given class out of the region,
// back to back from its start, as one slab: a prepost ring costs the host
// one allocation, not one per buffer, and like SubBuffer no registration.
func (m *Memory) Carve(class, count int) []Buffer {
	size := ClassCapacity(class)
	if count < 0 || count*size > m.size {
		panic("gm: Carve out of range")
	}
	if !m.registered {
		panic("gm: Carve of deregistered memory")
	}
	bufs := make([]Buffer, count)
	for i := range bufs {
		bufs[i] = Buffer{mem: m, class: class, off: i * size, n: size}
	}
	return bufs
}

// Span points b (a fresh header when nil; a pool recycles them so a send
// allocates none) at the n bytes at off of the region, as a send buffer.
// It has no size class: in GM the class belongs to the receive buffer a
// message lands in and a send derives it from the message length, so
// registered send memory can be carved to any length.
func (m *Memory) Span(b *Buffer, off, n int) *Buffer {
	if off < 0 || n < 0 || off+n > m.size {
		panic("gm: Span out of range")
	}
	if b == nil {
		b = new(Buffer)
	}
	*b = Buffer{mem: m, off: off, n: n}
	return b
}
