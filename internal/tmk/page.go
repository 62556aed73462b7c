package tmk

import (
	"cmp"
	"slices"
	"sort"
)

type pageState uint8

const (
	// pageInvalid: the local copy (if any) is missing diffs named by
	// known write notices; any access faults.
	pageInvalid pageState = iota
	// pageReadOnly: the copy is valid for reading; a write will fault to
	// create a twin.
	pageReadOnly
	// pageWritable: twinned and being written in the current interval.
	pageWritable
)

// pageMeta is one process's view of one shared page.
type pageMeta struct {
	id     int32
	region *Region
	state  pageState
	frame  []byte // the page's storage, nil until the first store (bytes, store)
	twin   []byte // snapshot at write-fault time, nil unless writable; zeroPage itself if there was no frame (ownTwin)

	haveCopy bool // the contents have ever been initialized (owned, zero-filled or fetched)

	// writers holds, sorted by proc, every process this page has a write
	// notice from (our own included): the copy's coverage and notices are
	// kept per writer, not per rank, because a coverage above zero implies
	// a notice.
	writers []pageWriter
	pool    *noticePool // the owning process's: backs and counts the lists
}

// pageWriter is one writer of a page: the timestamp up to which its diffs
// are incorporated in the copy, and the sorted timestamps of its intervals
// that dirtied the page.
type pageWriter struct {
	proc    int32
	cover   int32
	notices []int32
}

// noticePool backs every writer list and notice list of one process. A
// list that must grow takes its new capacity from the current chunk, not
// the heap, and live counts the notices of all lists where they are added
// and dropped: the write-notice share of the metadata gauge.
type noticePool struct {
	notices []int32      // unused tail of the current chunk of notices
	writers []pageWriter // unused tail of the current chunk of writer entries
	live    int64
}

// carve returns lst with room for at least one more entry: double its
// capacity (at least least), taken from the unused tail *chunk, which is a
// page of entries (perChunk) when refilled.
func carve[T any](chunk *[]T, lst []T, least, perChunk int) []T {
	n := max(least, 2*cap(lst))
	if len(*chunk) < n {
		*chunk = make([]T, max(n, perChunk))
	}
	out := (*chunk)[:len(lst):n]
	*chunk = (*chunk)[n:]
	copy(out, lst)
	return out
}

// writer returns q's entry, or nil if q never wrote the page.
func (pm *pageMeta) writer(q int) *pageWriter {
	if i, ok := pm.find(q); ok {
		return &pm.writers[i]
	}
	return nil
}

func (pm *pageMeta) find(q int) (int, bool) {
	return slices.BinarySearchFunc(pm.writers, int32(q), func(w pageWriter, q int32) int { return cmp.Compare(w.proc, q) })
}

// coverOf returns the timestamp up to which q's diffs are in the copy.
func (pm *pageMeta) coverOf(q int) int32 {
	if w := pm.writer(q); w != nil {
		return w.cover
	}
	return 0
}

// coverTo raises q's coverage to ts; q must hold a notice for the page.
func (pm *pageMeta) coverTo(q int, ts int32) {
	if w := pm.writer(q); ts > w.cover {
		w.cover = ts
	}
}

// noticesOf returns q's notices for the page, oldest first.
func (pm *pageMeta) noticesOf(q int) []int32 {
	if w := pm.writer(q); w != nil {
		return w.notices
	}
	return nil
}

// addNotice records that proc q dirtied this page in its interval ts and
// reports whether the page must be invalidated (an uncovered notice).
func (pm *pageMeta) addNotice(q int, ts int32) bool {
	i, ok := pm.find(q)
	if !ok {
		if len(pm.writers) == cap(pm.writers) {
			pm.writers = carve(&pm.pool.writers, pm.writers, 1, PageSize/32)
		}
		pm.writers = slices.Insert(pm.writers, i, pageWriter{proc: int32(q)})
	}
	w := &pm.writers[i]
	lst := w.notices
	j := sort.Search(len(lst), func(j int) bool { return lst[j] >= ts })
	if j < len(lst) && lst[j] == ts {
		return ts > w.cover
	}
	if len(lst) == cap(lst) {
		lst = carve(&pm.pool.notices, lst, 2, PageSize/4)
	}
	lst = lst[:len(lst)+1]
	copy(lst[j+1:], lst[j:])
	lst[j] = ts
	w.notices = lst
	pm.pool.live++
	return ts > w.cover
}

// missing returns the timestamps of w's intervals whose diffs this copy
// lacks (ts > w.cover).
func (w *pageWriter) missing() []int32 {
	i := sort.Search(len(w.notices), func(i int) bool { return w.notices[i] > w.cover })
	return w.notices[i:]
}

// isMissingAny reports whether any writer's diffs are missing.
func (pm *pageMeta) isMissingAny(self int) bool {
	for i := range pm.writers {
		if w := &pm.writers[i]; int(w.proc) != self && len(w.missing()) > 0 {
			return true
		}
	}
	return false
}

// keepNewest drops, per writer q, every notice older than the newest one
// with ts ≤ v[q]. It runs on every page at every barrier, and a list holds
// a few entries past v at most: count those from the end.
func (pm *pageMeta) keepNewest(v VC) {
	for i := range pm.writers {
		w := &pm.writers[i]
		lst := w.notices
		cut := len(lst)
		for cut > 0 && lst[cut-1] > v[w.proc] {
			cut--
		}
		if cut > 1 {
			w.notices = append(lst[:0], lst[cut-1:]...)
			pm.pool.live -= int64(cut - 1)
		}
	}
}
