package rdmagm

import (
	"encoding/binary"
	"fmt"
)

// Wire framing for the one-sided ports. Verb descriptors travel to the
// target's verb port; completion entries travel back to the initiator's
// completion-queue port. Both are transport-internal binary frames,
// little-endian, hardened against truncation and garbage: on a faulty
// fabric the layer below may hand the NIC anything.

// Frame tags. Disjoint from the fastgm tags (1..6) so a frame misrouted
// across ports is always rejected rather than misparsed.
const (
	frameVerbPut    byte = 0x11 // one-sided write: payload follows the header
	frameVerbGet    byte = 0x12 // one-sided read: no payload
	frameCompletion byte = 0x14 // CQ entry answering one verb
)

// Completion statuses.
const (
	compOK        byte = 0 // verb executed
	compBadWindow byte = 1 // window id not registered at the target
	compOOB       byte = 2 // byte range outside the registered window
)

// verbHeaderLen is the fixed prefix of every verb frame:
// tag(1) origin(4) seq(4) window(4) off(4) length(4).
const verbHeaderLen = 21

// compHeaderLen is the fixed prefix of every completion frame:
// tag(1) from(4) seq(4) op(1) status(1).
const compHeaderLen = 11

// verbFrame is one decoded verb descriptor.
type verbFrame struct {
	op      byte
	origin  int32
	seq     uint32
	window  int32
	off     int
	length  int
	payload []byte // Put only; aliases the receive buffer
}

// encodeVerb writes the frame for vf into dst and returns its length.
// dst must have room (verbFrameLen).
func encodeVerb(dst []byte, vf *verbFrame) int {
	dst[0] = vf.op
	binary.LittleEndian.PutUint32(dst[1:], uint32(vf.origin))
	binary.LittleEndian.PutUint32(dst[5:], vf.seq)
	binary.LittleEndian.PutUint32(dst[9:], uint32(vf.window))
	binary.LittleEndian.PutUint32(dst[13:], uint32(vf.off))
	binary.LittleEndian.PutUint32(dst[17:], uint32(vf.length))
	n := verbHeaderLen
	if vf.op == frameVerbPut {
		n += copy(dst[verbHeaderLen:], vf.payload)
	}
	return n
}

// verbFrameLen returns the encoded size of vf.
func verbFrameLen(vf *verbFrame) int {
	if vf.op == frameVerbPut {
		return verbHeaderLen + len(vf.payload)
	}
	return verbHeaderLen
}

// decodeVerb parses one verb frame. The returned payload aliases data.
func decodeVerb(data []byte) (*verbFrame, error) {
	if len(data) < verbHeaderLen {
		return nil, fmt.Errorf("rdmagm: verb frame truncated (%d bytes)", len(data))
	}
	vf := &verbFrame{
		op:     data[0],
		origin: int32(binary.LittleEndian.Uint32(data[1:])),
		seq:    binary.LittleEndian.Uint32(data[5:]),
		window: int32(binary.LittleEndian.Uint32(data[9:])),
		off:    int(int32(binary.LittleEndian.Uint32(data[13:]))),
		length: int(int32(binary.LittleEndian.Uint32(data[17:]))),
	}
	if vf.length < 0 {
		return nil, fmt.Errorf("rdmagm: verb with negative length %d", vf.length)
	}
	switch vf.op {
	case frameVerbPut:
		if len(data) != verbHeaderLen+vf.length {
			return nil, fmt.Errorf("rdmagm: put frame carries %d payload bytes, header claims %d",
				len(data)-verbHeaderLen, vf.length)
		}
		vf.payload = data[verbHeaderLen:]
	case frameVerbGet:
		if len(data) != verbHeaderLen {
			return nil, fmt.Errorf("rdmagm: get frame with trailing bytes")
		}
	default:
		return nil, fmt.Errorf("rdmagm: unknown verb op %#x", vf.op)
	}
	return vf, nil
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

// encodeCompletion builds the CQ entry answering vf with the given
// status. For compOK, get carries a Get's snapshot payload; for faults,
// size is the registered window size (-1 for an unknown window id).
func encodeCompletion(from int32, vf *verbFrame, status byte, get []byte, size int64) []byte {
	n := compHeaderLen
	switch {
	case status != compOK:
		n += 4 + 4 + 4 + 8
	case vf.op == frameVerbGet:
		n += len(get)
	}
	b := make([]byte, n)
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
func decodeCompletion(data []byte) (*compFrame, error) {
	if len(data) < compHeaderLen {
		return nil, fmt.Errorf("rdmagm: completion truncated (%d bytes)", len(data))
	}
	cf := &compFrame{
		from:   int32(binary.LittleEndian.Uint32(data[1:])),
		seq:    binary.LittleEndian.Uint32(data[5:]),
		op:     data[9],
		status: data[10],
	}
	body := data[compHeaderLen:]
	switch {
	case cf.status == compBadWindow || cf.status == compOOB:
		if len(body) != 4+4+4+8 {
			return nil, fmt.Errorf("rdmagm: fault completion malformed")
		}
		cf.window = int32(binary.LittleEndian.Uint32(body))
		cf.off = int(int32(binary.LittleEndian.Uint32(body[4:])))
		cf.length = int(int32(binary.LittleEndian.Uint32(body[8:])))
		cf.size = int64(binary.LittleEndian.Uint64(body[12:]))
	case cf.status != compOK:
		return nil, fmt.Errorf("rdmagm: unknown completion status %#x", cf.status)
	case cf.op == frameVerbGet:
		cf.payload = body
	case cf.op == frameVerbPut:
		if len(body) != 0 {
			return nil, fmt.Errorf("rdmagm: put completion with trailing bytes")
		}
	default:
		return nil, fmt.Errorf("rdmagm: completion for unknown op %#x", cf.op)
	}
	return cf, nil
}
