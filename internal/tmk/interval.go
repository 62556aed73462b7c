package tmk

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/msg"
)

// intervalRec is one consistency interval known to this process: process
// proc's modifications up to its timestamp ts, with the closing vector
// clock and the pages dirtied (write notices).
type intervalRec struct {
	proc  int32
	ts    int32
	vc    VC
	pages []int32
}

// intervalStore is a process's append-only log of known intervals,
// indexed by creating process. Insertion is idempotent (dedup by
// (proc, ts)), which makes interval exchange via locks and barriers
// naturally convergent. The store owns every record and list in it: they
// are carved out of chunks — records, the per-proc indexes as they grow,
// and the clocks and page lists add copies in — so logging an interval
// allocates nothing but, now and then, a chunk.
type intervalStore struct {
	byProc [][]*intervalRec // per proc, sorted by ts ascending
	slab   []intervalRec    // unused tail of the current run of records
	index  []*intervalRec   // unused tail of the current chunk of index space
	ints   []int32          // unused tail of the current chunk of clocks and page lists
	bytes  int64            // Σ intervalRecBytes over the records held (metadata gauge)
}

// recSlab is how many interval records the store allocates at a time, and
// indexChunk and intsChunk how many index entries and int32s.
const (
	recSlab    = 64
	indexChunk = 512
	intsChunk  = 1024
)

// intervalRecBytes approximates one interval record's footprint for the
// metadata gauge: fixed header plus the vector clock and page list.
func intervalRecBytes(rec *intervalRec) int64 {
	return int64(16 + 4*len(rec.vc) + 4*len(rec.pages))
}

func newIntervalStore(n int) *intervalStore {
	return &intervalStore{byProc: make([][]*intervalRec, n)}
}

// find returns where (proc, ts) is or would be in byProc[proc], and
// whether it is there.
func (s *intervalStore) find(proc, ts int32) (int, bool) {
	return slices.BinarySearchFunc(s.byProc[proc], ts, func(r *intervalRec, ts int32) int { return cmp.Compare(r.ts, ts) })
}

// add logs interval (proc, ts) with copies of its closing clock and write
// notices, unless it is known already; it returns the new record, or nil.
func (s *intervalStore) add(proc, ts int32, vc VC, pages []int32) *intervalRec {
	lst := s.byProc[proc]
	i := len(lst)
	if i > 0 && lst[i-1].ts >= ts { // records usually arrive in ts order
		var known bool
		if i, known = s.find(proc, ts); known {
			return nil
		}
	}
	if len(s.slab) == 0 {
		s.slab = make([]intervalRec, recSlab)
	}
	rec := &s.slab[0]
	s.slab = s.slab[1:]
	*rec = intervalRec{proc: proc, ts: ts, vc: s.keep(vc), pages: s.keep(pages)}
	s.bytes += intervalRecBytes(rec)
	if len(lst) == cap(lst) {
		lst = carve(&s.index, lst, 4, indexChunk)
	}
	s.byProc[proc] = slices.Insert(lst, i, rec)
	return rec
}

// keep returns a copy of l in the store's chunks (nil if l is empty).
func (s *intervalStore) keep(l []int32) []int32 {
	if len(l) == 0 {
		return nil
	}
	if len(s.ints) < len(l) {
		s.ints = make([]int32, max(intsChunk, len(l)))
	}
	out := s.ints[:len(l):len(l)]
	s.ints = s.ints[len(l):]
	copy(out, l)
	return out
}

// all calls fn for every known interval.
func (s *intervalStore) all(fn func(*intervalRec)) {
	for _, lst := range s.byProc {
		for _, rec := range lst {
			fn(rec)
		}
	}
}

// get returns the record for (proc, ts), or nil.
func (s *intervalStore) get(proc, ts int32) *intervalRec {
	if i, ok := s.find(proc, ts); ok {
		return s.byProc[proc][i]
	}
	return nil
}

// since appends to out[:0] every known interval with ts > v[proc], sorted
// by (vc.Sum, proc, ts) — a linear extension of happens-before, so
// receivers may process them in slice order.
func (s *intervalStore) since(v VC, out []*intervalRec) []*intervalRec {
	out = out[:0]
	for q, lst := range s.byProc {
		from := int32(0)
		if q < len(v) {
			from = v[q]
		}
		i := sort.Search(len(lst), func(i int) bool { return lst[i].ts > from })
		out = append(out, lst[i:]...)
	}
	slices.SortFunc(out, hbCompare)
	return out
}

// pruneThrough discards every record with ts ≤ v[proc] (endEpoch: once
// every rank is past the barrier at vector clock v, none can ever request
// intervals that old again).
func (s *intervalStore) pruneThrough(v VC) {
	for q, lst := range s.byProc {
		if q >= len(v) {
			continue
		}
		cut := sort.Search(len(lst), func(i int) bool { return lst[i].ts > v[q] })
		if cut == 0 {
			continue
		}
		for _, rec := range lst[:cut] {
			s.bytes -= intervalRecBytes(rec)
		}
		s.byProc[q] = slices.Delete(lst, 0, cut)
	}
}

// hbCompare is the linear extension of happens-before that every replay of
// intervals or diffs follows: vector-clock sum (a causal predecessor's is
// strictly smaller), concurrent intervals ordered by (proc, ts). It is a
// total order on records, so any sort by it leaves them in the same order.
func hbCompare(a, b *intervalRec) int {
	if c := cmp.Compare(a.vc.Sum(), b.vc.Sum()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.proc, b.proc); c != 0 {
		return c
	}
	return cmp.Compare(a.ts, b.ts)
}

// toWire appends the records, as wire intervals, to out[:0].
func toWire(recs []*intervalRec, out []msg.Interval) []msg.Interval {
	out = out[:0]
	for _, r := range recs {
		out = append(out, msg.Interval{Proc: r.proc, TS: r.ts, VC: r.vc.Ints(), Pages: r.pages})
	}
	return out
}

// ctxBufs is the storage one context of the process — its mainline or its
// handler, which may run between any two steps of the mainline (a handler
// that grants a lock reads the log too) — builds outgoing messages in:
// since's records, their wire form and the message itself, each valid
// until the context's next use.
type ctxBufs struct {
	recs []*intervalRec
	ivs  []msg.Interval
	out  msg.Message
}

// since returns every known interval newer than v (intervalStore.since), in
// the current context's storage.
func (tp *Proc) since(v VC) []*intervalRec {
	b := tp.ctxBufs()
	b.recs = tp.store.since(v, b.recs)
	return b.recs
}

// toWire returns recs as wire intervals, in the current context's storage.
func (tp *Proc) toWire(recs []*intervalRec) []msg.Interval {
	b := tp.ctxBufs()
	b.ivs = toWire(recs, b.ivs)
	return b.ivs
}

// outgoing returns m in the current context's storage, to hand to a
// transport: CallBegin and Reply encode a message before they return, so
// one per context serves every request and reply tmk sends.
func (tp *Proc) outgoing(m msg.Message) *msg.Message {
	b := tp.ctxBufs()
	b.out = m
	return &b.out
}

func (tp *Proc) ctxBufs() *ctxBufs {
	if tp.sp.InHandler() {
		return &tp.bufs[1]
	}
	return &tp.bufs[0]
}
