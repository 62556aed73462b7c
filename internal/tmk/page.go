package tmk

import "sort"

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
	twin   []byte // snapshot at write-fault time, nil unless writable

	haveCopy bool // the contents have ever been initialized (owned, zero-filled or fetched)
	cover    VC   // per-writer timestamp whose diffs are incorporated

	// notices[q] = sorted timestamps of q's intervals that dirtied this
	// page (including our own, which are always covered).
	notices [][]int32
	pool    *noticePool // the owning process's: backs and counts the lists
}

// noticePool backs every notice list of one process. A list that must
// grow takes its new capacity from the current chunk, not the heap, and
// live counts the entries of all lists where they are added and dropped:
// the write-notice share of the metadata gauge.
type noticePool struct {
	chunk []int32 // unused tail of the current chunk
	live  int64
}

// grow returns lst with room for at least one more entry.
func (np *noticePool) grow(lst []int32) []int32 {
	n := max(2, 2*cap(lst))
	if len(np.chunk) < n {
		np.chunk = make([]int32, max(n, PageSize/4)) // a chunk is a page of entries
	}
	out := np.chunk[:len(lst):n]
	np.chunk = np.chunk[n:]
	copy(out, lst)
	return out
}

// addNotice records that proc q dirtied this page in its interval ts and
// reports whether the page must be invalidated (an uncovered notice).
func (pm *pageMeta) addNotice(q int, ts int32) bool {
	lst := pm.notices[q]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= ts })
	if i < len(lst) && lst[i] == ts {
		return ts > pm.cover[q]
	}
	if len(lst) == cap(lst) {
		lst = pm.pool.grow(lst)
	}
	lst = lst[:len(lst)+1]
	copy(lst[i+1:], lst[i:])
	lst[i] = ts
	pm.notices[q] = lst
	pm.pool.live++
	return ts > pm.cover[q]
}

// missingFrom returns, for writer q, the timestamps of q's intervals
// whose diffs this copy lacks (ts > cover[q]).
func (pm *pageMeta) missingFrom(q int) []int32 {
	lst := pm.notices[q]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] > pm.cover[q] })
	return lst[i:]
}

// isMissingAny reports whether any writer's diffs are missing.
func (pm *pageMeta) isMissingAny(self int) bool {
	for q := range pm.notices {
		if q == self {
			continue
		}
		if len(pm.missingFrom(q)) > 0 {
			return true
		}
	}
	return false
}

// keepNewest drops, per writer q, every notice older than the newest one
// with ts ≤ v[q]. It runs on every page at every barrier, and a list holds
// a few entries past v at most: count those from the end.
func (pm *pageMeta) keepNewest(v VC) {
	for q, lst := range pm.notices {
		cut := len(lst)
		for cut > 0 && lst[cut-1] > v[q] {
			cut--
		}
		if cut > 1 {
			pm.notices[q] = append(lst[:0], lst[cut-1:]...)
			pm.pool.live -= int64(cut - 1)
		}
	}
}
