// Package msg defines the TreadMarks wire protocol: the request and reply
// messages exchanged by the lazy-release-consistency engine, with a
// compact deterministic binary encoding. Encoded sizes are what the GM
// substrate's size classes and the UDP baseline's copy costs see, so the
// encoding is genuinely packed rather than a Go-serialization convenience.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/trace"
)

// Kind discriminates protocol messages.
type Kind uint8

// Protocol message kinds. Requests arrive asynchronously (SIGIO / NIC
// interrupt); replies are awaited synchronously — the split that drives
// the paper's two-port design.
const (
	KInvalid Kind = iota
	// KLockAcquire: requester → lock manager. Carries the requester's
	// vector clock so the eventual granter can compute missing intervals.
	KLockAcquire
	// KLockGrant: granter → requester, carrying consistency intervals.
	KLockGrant
	// KBarrierArrive: client → barrier manager with the client's new
	// intervals since the last barrier.
	KBarrierArrive
	// KBarrierRelease: manager → clients with the merged interval set.
	KBarrierRelease
	// KDiffReq: faulting process → writer, requesting diffs for pages.
	KDiffReq
	// KDiffReply: writer → faulting process with encoded diffs.
	KDiffReply
	// KDistribute: proc 0 → all, announcing a shared region (Tmk_distribute).
	KDistribute
	// KAck: generic empty acknowledgement.
	KAck
	// KPing/KPong: micro-benchmark round-trip probes (harness.Netperf, E0).
	KPing
	KPong
	// KHeartbeat: liveness probe between UDP/GM kernels. Intercepted below
	// the request dispatcher (it only refreshes the peer's last-heard
	// clock), so it never enters the duplicate cache or the handler.
	KHeartbeat
	// KDistributeCommit: proc 0 → all, second round of a home-based
	// distribute. Sent only after every rank acked KDistribute (and so
	// registered its memory window), it releases the waiters in
	// AllocShared: no rank writes shared data — and therefore no rank
	// flushes diffs to a home window — before every window exists.
	KDistributeCommit
)

var kindNames = [...]string{
	"invalid", "lock-acquire", "lock-grant",
	"barrier-arrive", "barrier-release", "diff-req", "diff-reply",
	"distribute", "ack",
	"ping", "pong", "heartbeat", "distribute-commit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRequest reports whether the kind travels on the asynchronous request
// path (true) or the synchronous reply path (false).
func (k Kind) IsRequest() bool {
	switch k {
	case KLockAcquire, KBarrierArrive, KDiffReq, KDistribute, KDistributeCommit, KPing:
		return true
	default:
		return false
	}
}

// Interval is one consistency interval: all modifications proc Proc made
// between its timestamps TS-1 and TS, summarized as write notices (the
// pages dirtied). VC is the writer's full vector clock when the interval
// closed (with VC[Proc] == TS); receivers use it to apply diffs in a
// linear extension of the happens-before order.
type Interval struct {
	Proc  int32
	TS    int32
	VC    []int32
	Pages []int32 // write notices: page IDs dirtied in the interval
}

// DiffRange asks writer Proc for its diffs of page Page with timestamps
// in (FromTS, ToTS].
type DiffRange struct {
	Page   int32
	Proc   int32
	FromTS int32
	ToTS   int32
}

// Diff carries one encoded page diff created by Proc at interval TS.
type Diff struct {
	Page int32
	Proc int32
	TS   int32
	Data []byte // run-length word encoding (see tmk/diff.go)
}

// RegionInfo describes a shared region announced by Tmk_distribute.
type RegionInfo struct {
	ID        int32
	StartPage int32
	Pages     int32
	Bytes     int64
}

// Message is one protocol message. Fields beyond the header are used
// per-kind; unused fields must be zero so encoding stays minimal.
type Message struct {
	Kind    Kind
	Seq     uint32 // per-sender sequence, for reply matching and dup filtering
	From    int32  // sending process
	ReplyTo int32  // process the reply must go to (survives forwarding)

	// Ctx is the causal trace context (DESIGN.md §13). It is message-level
	// header state, not payload: transports carry its canonical wire form
	// (trace.EncodeCtx) as uncharged envelope metadata, stamp it here on
	// receive, and read it to parent the edges of replies and forwards.
	// Encode/Decode deliberately ignore it — billing it would perturb the
	// measurement, and tracing must be bit-identical on/off.
	Ctx trace.Ctx

	Lock    int32
	Barrier int32
	Episode int32
	Page    int32

	Region    RegionInfo
	VC        []int32
	Intervals []Interval
	DiffReqs  []DiffRange
	Diffs     []Diff
	PageData  []byte
}

// A diff reply may continue across frames (DESIGN.md §4.3): its requester
// grants a frame budget, and each frame of the reply is a KDiffReply of its
// own, carrying the next diffs in order. The words that say so ride in
// header words the diff kinds leave unused, Lock and Barrier, so a
// one-frame exchange encodes as a plain one: a KDiffReq's Lock word is the
// budget (0 grants one frame), and a KDiffReply's Lock and Barrier words
// are the frame's index and the index of the reply's last frame.

// Budget returns how many frames a KDiffReq lets its reply span.
func (m *Message) Budget() int { return max(int(m.Lock), 1) }

// SetBudget grants a KDiffReq's reply n frames.
func (m *Message) SetBudget(n int) { m.Lock = int32(n) }

// Frame returns the index of a reply frame and how many frames its reply
// spans: 0 of 1 for every message but a continued KDiffReply.
func (m *Message) Frame() (i, n int) {
	if m.Kind != KDiffReply {
		return 0, 1
	}
	return int(m.Lock), int(m.Barrier) + 1
}

// SetFrame marks a KDiffReply as frame i of a reply spanning n frames.
func (m *Message) SetFrame(i, n int) { m.Lock, m.Barrier = int32(i), int32(n-1) }

// ErrTruncated reports a decode of a short or corrupt buffer.
var ErrTruncated = errors.New("msg: truncated or corrupt message")

// field presence bits, so empty slices cost nothing on the wire.
const (
	fVC uint8 = 1 << iota
	fIntervals
	fDiffReqs
	fDiffs
	fPageData
	fRegion
)

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// pages writes a write-notice list in the shorter of its two forms (see
// runForm): each page, or each run of consecutive pages as its first page
// and its length. A tie keeps the list.
func (w *writer) pages(pgs []int32) {
	if 2*pageRuns(pgs) >= len(pgs) {
		w.u32(uint32(len(pgs)))
		for _, pg := range pgs {
			w.i32(pg)
		}
		return
	}
	w.u32(runForm | uint32(len(pgs)))
	for i := 0; i < len(pgs); {
		j := i + 1
		for j < len(pgs) && follows(pgs[j-1], pgs[j]) {
			j++
		}
		w.i32(pgs[i])
		w.i32(int32(j - i))
		i = j
	}
}

// pageRuns returns how many runs of consecutive pages pgs falls into.
func pageRuns(pgs []int32) int {
	n := 0
	for i, pg := range pgs {
		if i == 0 || !follows(pgs[i-1], pg) {
			n++
		}
	}
	return n
}

// follows reports whether page b comes right after page a (never across
// the int32 wrap).
func follows(a, b int32) bool { return a != math.MaxInt32 && b == a+1 }

// pagesSize returns the wire size of a write-notice list: its count and the
// shorter of its two forms.
func pagesSize(pgs []int32) int { return lenSize + 4*min(len(pgs), 2*pageRuns(pgs)) }

type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) need(n int) bool {
	if r.err || r.off+n > len(r.b) {
		r.err = true
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32 { return int32(r.u32()) }

// capHint bounds a count-prefixed preallocation by the bytes actually
// remaining (at elemSize wire bytes per element), so a corrupt count in a
// short datagram cannot amplify into a large allocation. The decode loops
// still run to the declared count; they just stop growing from a hint.
func (r *reader) capHint(n, elemSize int) int {
	if rem := (len(r.b) - r.off) / elemSize; n > rem {
		return rem
	}
	return n
}

// skip advances past n bytes.
func (r *reader) skip(n int) {
	if n < 0 || !r.need(n) {
		r.err = true
		return
	}
	r.off += n
}

// sizes pre-scans the lists ahead of r, without consuming them, for the
// backings Decode copies them into: the int32s of the VC and of every
// interval's VC and page list, and the bytes of every diff's data. Each
// total is bounded by the bytes remaining (capHint's rule), and the pages
// the runs expand to by maxNoticePages, so a corrupt count cannot amplify
// the allocation made from it; a message the pre-scan finds corrupt costs
// none (ok false).
func (r reader) sizes(flags uint8) (ints, data int, ok bool) {
	rem := len(r.b) - r.off
	pages := 0 // expanded from runs
	if flags&fVC != 0 {
		n := int(r.u16())
		r.skip(4 * n)
		ints += n
	}
	if flags&fIntervals != 0 {
		for i, n := 0, int(r.u16()); i < n && !r.err; i++ {
			r.skip(2 + 4)
			nv := int(r.u16())
			r.skip(4 * nv)
			ints += nv
			if np := r.u32(); np&runForm != 0 {
				r.runs(int(np&^runForm), nil)
				pages += int(np &^ runForm)
			} else {
				r.skip(4 * int(np))
				ints += int(np)
			}
		}
	}
	if flags&fDiffReqs != 0 {
		r.skip(diffReqSize * int(r.u16()))
	}
	if flags&fDiffs != 0 {
		for i, n := 0, int(r.u16()); i < n && !r.err; i++ {
			r.skip(4 + 2 + 4)
			k := int(r.u32())
			r.skip(k)
			data += k
		}
	}
	if r.err || pages > maxNoticePages {
		return 0, 0, false
	}
	return min(ints, rem/4) + pages, min(data, rem), true
}

// i32s reads n int32s onto the end of *back and returns them as a list of
// their own (capacity n: an append to it cannot reach a neighbour's), nil
// if n is 0.
func (r *reader) i32s(n int, back *[]int32) []int32 {
	from := len(*back)
	for j := 0; j < n && !r.err; j++ {
		*back = append(*back, r.i32())
	}
	return capped((*back)[from:])
}

// runs reads the runs of an n-page run-form page list (see runForm),
// appending their pages to *back unless back is nil. A run must be
// non-empty, end at or below math.MaxInt32 and stay within the n pages the
// list declares.
func (r *reader) runs(n int, back *[]int32) {
	for left := n; left > 0 && !r.err; {
		first, count := r.i32(), r.i32()
		if r.err || count <= 0 || int(count) > left || int64(first)+int64(count)-1 > math.MaxInt32 {
			r.err = true
			return
		}
		if back != nil {
			for pg := range count {
				*back = append(*back, first+pg)
			}
		}
		left -= int(count)
	}
}

// bytes reads a count-prefixed byte string onto the end of *back and
// returns it (nil if empty). It is a copy: the transports re-post the
// receive buffer as soon as a message is decoded, so aliasing it would let
// the next arrival corrupt this message's diffs or page contents. The
// copies of one message share *back, so the message costs one backing,
// not one per diff.
func (r *reader) bytes(back *[]byte) []byte {
	n := int(r.u32())
	if n < 0 || !r.need(n) {
		r.err = true
		return nil
	}
	from := len(*back)
	*back = append(*back, r.b[r.off:r.off+n]...)
	r.off += n
	return capped((*back)[from:])
}

// capped returns s with its capacity cut to its length — nothing past it,
// a neighbour's list or what an earlier message left in a reused backing,
// is reachable through it — or nil if it is empty.
func capped[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// reuse returns s emptied, or a new empty slice of capacity n if s has
// less: a reused backing grows to the largest message seen, exactly, never
// to the wire cap.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// reuseList is reuse for a decoder's lists of intervals, ranges and
// diffs: a list that must grow takes at least four elements and at least
// doubles, as append's would, so a decoder meeting one diff and then two
// allocates once. Its elements are a few dozen bytes; the int and byte
// backings, which a diff reply makes page-sized, grow exactly (reuse).
func reuseList[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, 2*cap(s), 4))
	}
	return s[:0]
}

// Encode serializes m into one new buffer of exactly EncodedSize bytes.
func (m *Message) Encode() []byte { return m.EncodeTo(nil) }

// EncodeTo serializes m into buf's storage — or, if buf is too short, new
// storage (reuse) — and returns the encoding. Nothing of m is referenced by
// the result: the bytes are copies.
func (m *Message) EncodeTo(buf []byte) []byte {
	w := &writer{b: reuse(buf, m.EncodedSize())}
	w.u8(uint8(m.Kind))
	var flags uint8
	if len(m.VC) > 0 {
		flags |= fVC
	}
	if len(m.Intervals) > 0 {
		flags |= fIntervals
	}
	if len(m.DiffReqs) > 0 {
		flags |= fDiffReqs
	}
	if len(m.Diffs) > 0 {
		flags |= fDiffs
	}
	if len(m.PageData) > 0 {
		flags |= fPageData
	}
	if m.Region != (RegionInfo{}) {
		flags |= fRegion
	}
	w.u8(flags)
	w.u32(m.Seq)
	w.u16(uint16(m.From))
	w.u16(uint16(m.ReplyTo))
	w.i32(m.Lock)
	w.i32(m.Barrier)
	w.i32(m.Episode)
	w.i32(m.Page)

	if flags&fRegion != 0 {
		w.i32(m.Region.ID)
		w.i32(m.Region.StartPage)
		w.i32(m.Region.Pages)
		w.u64(uint64(m.Region.Bytes))
	}
	if flags&fVC != 0 {
		w.u16(uint16(len(m.VC)))
		for _, v := range m.VC {
			w.i32(v)
		}
	}
	if flags&fIntervals != 0 {
		w.u16(uint16(len(m.Intervals)))
		for _, iv := range m.Intervals {
			w.u16(uint16(iv.Proc))
			w.i32(iv.TS)
			w.u16(uint16(len(iv.VC)))
			for _, v := range iv.VC {
				w.i32(v)
			}
			w.pages(iv.Pages)
		}
	}
	if flags&fDiffReqs != 0 {
		w.u16(uint16(len(m.DiffReqs)))
		for _, dr := range m.DiffReqs {
			w.i32(dr.Page)
			w.u16(uint16(dr.Proc))
			w.i32(dr.FromTS)
			w.i32(dr.ToTS)
		}
	}
	if flags&fDiffs != 0 {
		w.u16(uint16(len(m.Diffs)))
		for _, d := range m.Diffs {
			w.i32(d.Page)
			w.u16(uint16(d.Proc))
			w.i32(d.TS)
			w.bytes(d.Data)
		}
	}
	if flags&fPageData != 0 {
		w.bytes(m.PageData)
	}
	return w.b
}

// Decode parses a message previously produced by Encode into memory of its
// own: the message and its lists belong to the caller for good.
func Decode(b []byte) (*Message, error) { return new(Decoder).Decode(b) }

// Decoder decodes messages into storage it keeps and reuses: the Message,
// every list and every byte backing. The message a Decode returns is valid
// until the Decoder's next Decode — whoever keeps any of it longer copies
// it. Empty lists decode as nil and every list's capacity is its length, so
// nothing an earlier message left in the storage is reachable from a later
// one.
type Decoder struct {
	m     Message
	ivs   []Interval
	reqs  []DiffRange
	diffs []Diff
	ints  []int32 // every VC and page list
	data  []byte  // every diff's data
	page  []byte  // PageData
}

// Decode parses b into the decoder's storage (see Decoder).
func (d *Decoder) Decode(b []byte) (*Message, error) {
	r := &reader{b: b}
	m := &d.m
	*m = Message{}
	m.Kind = Kind(r.u8())
	flags := r.u8()
	m.Seq = r.u32()
	m.From = int32(int16(r.u16()))
	m.ReplyTo = int32(int16(r.u16()))
	m.Lock = r.i32()
	m.Barrier = r.i32()
	m.Episode = r.i32()
	m.Page = r.i32()

	if flags&fRegion != 0 {
		m.Region.ID = r.i32()
		m.Region.StartPage = r.i32()
		m.Region.Pages = r.i32()
		m.Region.Bytes = int64(r.u64())
	}
	// One backing per list kind: every VC and page list shares ints, every
	// diff's data shares data.
	ni, nd, ok := r.sizes(flags)
	if !ok {
		return nil, ErrTruncated
	}
	d.ints, d.data = reuse(d.ints, ni), reuse(d.data, nd)
	if flags&fVC != 0 {
		m.VC = r.i32s(int(r.u16()), &d.ints)
	}
	if flags&fIntervals != 0 {
		n := int(r.u16())
		ivs := reuseList(d.ivs, r.capHint(n, intervalSize))
		for i := 0; i < n && !r.err; i++ {
			iv := Interval{Proc: int32(int16(r.u16())), TS: r.i32()}
			iv.VC = r.i32s(int(r.u16()), &d.ints)
			np := int(r.u32())
			switch {
			case np&runForm != 0: // sizes has bounded their pages
				from := len(d.ints)
				r.runs(np&^runForm, &d.ints)
				iv.Pages = capped(d.ints[from:])
			case np > len(b): // sanity bound against corrupt counts
				r.err = true
			default:
				iv.Pages = r.i32s(np, &d.ints)
			}
			ivs = append(ivs, iv)
		}
		d.ivs, m.Intervals = ivs, capped(ivs)
	}
	if flags&fDiffReqs != 0 {
		n := int(r.u16())
		reqs := reuseList(d.reqs, r.capHint(n, diffReqSize))
		for i := 0; i < n && !r.err; i++ {
			reqs = append(reqs, DiffRange{
				Page: r.i32(), Proc: int32(int16(r.u16())), FromTS: r.i32(), ToTS: r.i32(),
			})
		}
		d.reqs, m.DiffReqs = reqs, capped(reqs)
	}
	if flags&fDiffs != 0 {
		n := int(r.u16())
		diffs := reuseList(d.diffs, r.capHint(n, diffSize))
		for i := 0; i < n && !r.err; i++ {
			df := Diff{Page: r.i32(), Proc: int32(int16(r.u16())), TS: r.i32()}
			df.Data = r.bytes(&d.data)
			diffs = append(diffs, df)
		}
		d.diffs, m.Diffs = diffs, capped(diffs)
	}
	if flags&fPageData != 0 {
		d.page = reuse(d.page, len(b)-r.off-lenSize) // the page is the last field
		m.PageData = r.bytes(&d.page)
	}
	if r.err {
		return nil, ErrTruncated
	}
	return m, nil
}

// An interval's write notices travel in the shorter of two forms, chosen
// per list by size: the pages one int32 each, or — with runForm set in the
// count — the runs of consecutive pages, each an int32 first page and an
// int32 length, together covering the count's pages in list order. A
// barrier release carries a rank's band of pages as one run, and no list is
// ever longer on the wire than its pages one int32 each.
const runForm = 1 << 31

// maxNoticePages bounds the pages a message's run-form write notices
// expand to when decoded: 8 bytes of wire can name 2³¹ pages, so Decode
// refuses a message past it before expanding anything. It is eight times
// the 8,192 pages a 32 KB frame holds in list form, so no message that
// could travel before runs existed is refused.
const maxNoticePages = 1 << 16

// Wire sizes of Encode's fixed parts: the header (kind, flags, seq, from,
// reply-to, lock, barrier, episode, page), the region, every count prefix
// and one element of each fixed-size list.
const (
	headerSize   = 1 + 1 + 4 + 2 + 2 + 4*4
	regionSize   = 3*4 + 8
	countSize    = 2 // u16 list counts
	lenSize      = 4 // u32 byte and page counts
	intervalSize = 2 + 4 + countSize + lenSize
	diffReqSize  = 4 + 2 + 4 + 4
	diffSize     = 4 + 2 + 4 + lenSize
)

// DiffRangesWithin returns how many ranges a KDiffReq can name and still
// encode to at most limit bytes.
func DiffRangesWithin(limit int) int { return (limit - headerSize - countSize) / diffReqSize }

// DiffReplySize returns the encoded size of a KDiffReply carrying n ≥ 1
// diffs whose Data total data bytes.
func DiffReplySize(n, data int) int { return headerSize + countSize + n*diffSize + data }

// EncodedSize returns the wire size Encode produces, computed from the
// message without building it.
func (m *Message) EncodedSize() int {
	n := headerSize
	if m.Region != (RegionInfo{}) {
		n += regionSize
	}
	if len(m.VC) > 0 {
		n += countSize + 4*len(m.VC)
	}
	if len(m.Intervals) > 0 {
		n += countSize
		for _, iv := range m.Intervals {
			n += intervalSize - lenSize + 4*len(iv.VC) + pagesSize(iv.Pages)
		}
	}
	if len(m.DiffReqs) > 0 {
		n += countSize + diffReqSize*len(m.DiffReqs)
	}
	if len(m.Diffs) > 0 {
		n += countSize
		for _, d := range m.Diffs {
			n += diffSize + len(d.Data)
		}
	}
	if len(m.PageData) > 0 {
		n += lenSize + len(m.PageData)
	}
	return n
}
