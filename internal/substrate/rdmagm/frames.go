package rdmagm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/substrate"
)

// Wire framing for the one-sided ports. Verb descriptors travel to the
// target's verb port; completion entries travel back to the initiator's
// completion-queue port. Both are transport-internal binary frames,
// little-endian, hardened against truncation and garbage: on a faulty
// fabric the layer below may hand the NIC anything.

// Frame tags. Disjoint from the fastgm tags (1..6) so a frame misrouted
// across ports is always rejected rather than misparsed.
const (
	frameVerbPut    byte = 0x11 // one-sided write: a vector of (range, payload) segments
	frameVerbGet    byte = 0x12 // one-sided read: one range, no payload
	frameCompletion byte = 0x14 // CQ entry answering one verb
)

// Completion statuses.
const (
	compOK        byte = 0 // verb executed
	compBadWindow byte = 1 // window id not registered at the target
	compOOB       byte = 2 // byte range outside the registered window
)

// verbHeaderLen is the fixed prefix of every verb frame — tag(1)
// origin(4) seq(4) window(4) — and rangeLen one byte range, off(4)
// length(4). A Get is the header and the one range it reads. A Put is the
// header and its segments back to back, each a range followed by that
// many payload bytes; the frame's own length delimits them (there is no
// segment count to lie), so a contiguous Put is header, range, payload.
const (
	verbHeaderLen = 13
	rangeLen      = 8
)

// compHeaderLen is the fixed prefix of every completion frame:
// tag(1) from(4) seq(4) op(1) status(1).
const compHeaderLen = 11

// verbFrame is one decoded verb descriptor.
type verbFrame struct {
	op     byte
	origin int32
	seq    uint32
	window int32
	// off, length: a Get's range; on a Put, the range a fault completion
	// names (set by the sink to the first offending segment).
	off    int
	length int
	segs   []substrate.PutSeg // Put only; Data aliases the receive buffer
}

// putFrameLen returns the encoded size of a Put of nseg segments carrying
// payload bytes in total.
func putFrameLen(nseg, payload int) int { return verbHeaderLen + nseg*rangeLen + payload }

// verbFrameLen returns the encoded size of vf.
func verbFrameLen(vf *verbFrame) int {
	if vf.op != frameVerbPut {
		return verbHeaderLen + rangeLen
	}
	payload := 0
	for _, s := range vf.segs {
		payload += len(s.Data)
	}
	return putFrameLen(len(vf.segs), payload)
}

func putRange(dst []byte, off, length int) {
	binary.LittleEndian.PutUint32(dst, uint32(off))
	binary.LittleEndian.PutUint32(dst[4:], uint32(length))
}

func getRange(b []byte) (off, length int) {
	return int(int32(binary.LittleEndian.Uint32(b))), int(int32(binary.LittleEndian.Uint32(b[4:])))
}

// encodeVerb writes the frame for vf into dst and returns its length.
// dst must have room (verbFrameLen).
func encodeVerb(dst []byte, vf *verbFrame) int {
	dst[0] = vf.op
	binary.LittleEndian.PutUint32(dst[1:], uint32(vf.origin))
	binary.LittleEndian.PutUint32(dst[5:], vf.seq)
	binary.LittleEndian.PutUint32(dst[9:], uint32(vf.window))
	n := verbHeaderLen
	if vf.op != frameVerbPut {
		putRange(dst[n:], vf.off, vf.length)
		return n + rangeLen
	}
	for _, s := range vf.segs {
		putRange(dst[n:], s.Off, len(s.Data))
		n += rangeLen + copy(dst[n+rangeLen:], s.Data)
	}
	return n
}

// decode parses one verb frame into vf, reusing its segment list. Segment
// data aliases data. Every length is checked against the bytes actually
// present before it is used, and the segment list grows only as real
// segments are parsed.
func (vf *verbFrame) decode(data []byte) error {
	if len(data) < verbHeaderLen {
		return fmt.Errorf("rdmagm: verb frame truncated (%d bytes)", len(data))
	}
	*vf = verbFrame{
		op:     data[0],
		origin: int32(binary.LittleEndian.Uint32(data[1:])),
		seq:    binary.LittleEndian.Uint32(data[5:]),
		window: int32(binary.LittleEndian.Uint32(data[9:])),
		segs:   vf.segs[:0],
	}
	body := data[verbHeaderLen:]
	switch vf.op {
	case frameVerbPut:
		for len(body) > 0 {
			if len(body) < rangeLen {
				return fmt.Errorf("rdmagm: put frame ends inside a segment header (%d stray bytes)", len(body))
			}
			off, n := getRange(body)
			if n < 0 || n > len(body)-rangeLen {
				return fmt.Errorf("rdmagm: put segment claims %d bytes, frame holds %d", n, len(body)-rangeLen)
			}
			vf.segs = append(vf.segs, substrate.PutSeg{Off: off, Data: body[rangeLen : rangeLen+n]})
			body = body[rangeLen+n:]
		}
	case frameVerbGet:
		if len(body) != rangeLen {
			return fmt.Errorf("rdmagm: get frame is %d bytes, want %d", len(data), verbHeaderLen+rangeLen)
		}
		if vf.off, vf.length = getRange(body); vf.length < 0 {
			return fmt.Errorf("rdmagm: get with negative length %d", vf.length)
		}
	default:
		return fmt.Errorf("rdmagm: unknown verb op %#x", vf.op)
	}
	return nil
}

// outside returns the first byte range of vf that does not lie inside a
// window of size bytes (-1: no such window, so every range is outside).
func (vf *verbFrame) outside(size int) (off, length int, bad bool) {
	if vf.op != frameVerbPut {
		return vf.off, vf.length, vf.off < 0 || vf.off+vf.length > size
	}
	for _, s := range vf.segs {
		if s.Off < 0 || s.Off+len(s.Data) > size {
			return s.Off, len(s.Data), true
		}
	}
	return 0, 0, false
}

// compFrame is one decoded completion-queue entry.
type compFrame struct {
	from    int32
	seq     uint32
	op      byte
	status  byte
	payload []byte // Get payload (compOK); aliases the receive buffer
	// Bounds-fault detail (compBadWindow/compOOB).
	window int32
	off    int
	length int
	size   int64
}

// encodeCompletion builds the CQ entry answering vf with the given status
// in buf's storage — or, if buf is too short, new storage of exactly the
// entry's size. For compOK, get carries a Get's snapshot payload; for
// faults, size is the registered window size (-1 for an unknown window
// id).
func encodeCompletion(buf []byte, from int32, vf *verbFrame, status byte, get []byte, size int64) []byte {
	n := compHeaderLen
	switch {
	case status != compOK:
		n += 4 + 4 + 4 + 8
	case vf.op == frameVerbGet:
		n += len(get)
	}
	b := buf[:0]
	if cap(b) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	b[0] = frameCompletion
	binary.LittleEndian.PutUint32(b[1:], uint32(from))
	binary.LittleEndian.PutUint32(b[5:], vf.seq)
	b[9] = vf.op
	b[10] = status
	switch {
	case status != compOK:
		binary.LittleEndian.PutUint32(b[compHeaderLen:], uint32(vf.window))
		binary.LittleEndian.PutUint32(b[compHeaderLen+4:], uint32(vf.off))
		binary.LittleEndian.PutUint32(b[compHeaderLen+8:], uint32(vf.length))
		binary.LittleEndian.PutUint64(b[compHeaderLen+12:], uint64(size))
	case vf.op == frameVerbGet:
		copy(b[compHeaderLen:], get)
	}
	return b
}

// decodeCompletion parses one CQ entry. The returned payload aliases data.
func decodeCompletion(data []byte) (compFrame, error) {
	if len(data) < compHeaderLen {
		return compFrame{}, fmt.Errorf("rdmagm: completion truncated (%d bytes)", len(data))
	}
	cf := compFrame{
		from:   int32(binary.LittleEndian.Uint32(data[1:])),
		seq:    binary.LittleEndian.Uint32(data[5:]),
		op:     data[9],
		status: data[10],
	}
	body := data[compHeaderLen:]
	switch {
	case cf.status == compBadWindow || cf.status == compOOB:
		if len(body) != 4+4+4+8 {
			return compFrame{}, fmt.Errorf("rdmagm: fault completion malformed")
		}
		cf.window = int32(binary.LittleEndian.Uint32(body))
		cf.off = int(int32(binary.LittleEndian.Uint32(body[4:])))
		cf.length = int(int32(binary.LittleEndian.Uint32(body[8:])))
		cf.size = int64(binary.LittleEndian.Uint64(body[12:]))
	case cf.status != compOK:
		return compFrame{}, fmt.Errorf("rdmagm: unknown completion status %#x", cf.status)
	case cf.op == frameVerbGet:
		cf.payload = body
	case cf.op == frameVerbPut:
		if len(body) != 0 {
			return compFrame{}, fmt.Errorf("rdmagm: put completion with trailing bytes")
		}
	default:
		return compFrame{}, fmt.Errorf("rdmagm: completion for unknown op %#x", cf.op)
	}
	return cf, nil
}
