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
// naturally convergent.
type intervalStore struct {
	byProc [][]*intervalRec // per proc, sorted by ts ascending
	slab   []intervalRec    // unused tail of the current run of records
	bytes  int64            // Σ intervalRecBytes over the records held (metadata gauge)
}

// recSlab is how many interval records the store allocates at a time.
const recSlab = 64

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

// add logs interval (proc, ts) with its closing clock and write notices,
// adopting both slices, unless it is known already; it returns the new
// record, or nil.
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
	*rec = intervalRec{proc: proc, ts: ts, vc: vc, pages: pages}
	s.bytes += intervalRecBytes(rec)
	s.byProc[proc] = slices.Insert(lst, i, rec)
	return rec
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

// since returns every known interval with ts > v[proc], sorted by
// (vc.Sum, proc, ts) — a linear extension of happens-before, so receivers
// may process them in slice order.
func (s *intervalStore) since(v VC) []*intervalRec {
	var out []*intervalRec
	for q, lst := range s.byProc {
		from := int32(0)
		if q < len(v) {
			from = v[q]
		}
		i := sort.Search(len(lst), func(i int) bool { return lst[i].ts > from })
		out = append(out, lst[i:]...)
	}
	sortIntervals(out)
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
		s.byProc[q] = append([]*intervalRec(nil), lst[cut:]...)
	}
}

// hbBefore is the linear extension of happens-before that every replay of
// intervals or diffs follows: vector-clock sum (a causal predecessor's is
// strictly smaller), concurrent intervals ordered by (proc, ts).
func hbBefore(a, b *intervalRec) bool {
	if sa, sb := a.vc.Sum(), b.vc.Sum(); sa != sb {
		return sa < sb
	}
	if a.proc != b.proc {
		return a.proc < b.proc
	}
	return a.ts < b.ts
}

func sortIntervals(recs []*intervalRec) {
	sort.Slice(recs, func(i, j int) bool { return hbBefore(recs[i], recs[j]) })
}

// toWire converts records to wire intervals.
func toWire(recs []*intervalRec) []msg.Interval {
	out := make([]msg.Interval, len(recs))
	for i, r := range recs {
		out[i] = msg.Interval{Proc: r.proc, TS: r.ts, VC: r.vc.Ints(), Pages: r.pages}
	}
	return out
}
