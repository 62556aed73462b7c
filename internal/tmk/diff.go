package tmk

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the shared-memory page granularity (the testbed's x86 page).
const PageSize = 4096

const wordsPerPage = PageSize / 4

// MakeTwin snapshots a page before the first write of an interval.
func MakeTwin(page []byte) []byte {
	if len(page) != PageSize {
		panic("tmk: twin of non-page")
	}
	return append([]byte(nil), page...)
}

// EncodeDiff produces the run-length word encoding of the difference
// between a page's twin and its current contents: a sequence of runs,
// each [u16 word offset][u16 word count][count × 4 bytes of new data].
// An unchanged page encodes to nil.
//
// The scan over unchanged regions — the common case, pages are mostly
// clean — compares two words at a time through 8-byte loads; run
// boundaries are then refined with single-word compares, so the output
// is byte-identical to a word-at-a-time scan.
func EncodeDiff(twin, cur []byte) []byte { return appendDiff(nil, twin, cur) }

// appendDiff is EncodeDiff into the caller's buffer: the encoding is
// appended to out, and only a nil out is allocated for.
func appendDiff(out, twin, cur []byte) []byte {
	if len(twin) != PageSize || len(cur) != PageSize {
		panic("tmk: diff of non-page")
	}
	w := 0
	for w < wordsPerPage {
		for w+1 < wordsPerPage &&
			binary.LittleEndian.Uint64(twin[w*4:]) == binary.LittleEndian.Uint64(cur[w*4:]) {
			w += 2
		}
		if w >= wordsPerPage {
			break
		}
		if wordEq(twin, cur, w) {
			w++
			continue
		}
		start := w
		for w < wordsPerPage && !wordEq(twin, cur, w) {
			w++
		}
		count := w - start
		if out == nil {
			// Worst case over the whole page: r runs and c changed words
			// encode to 4r+4c bytes, and r ≤ 512 with c ≤ 1025−r, so 4100
			// bytes always suffice — one allocation per diff.
			out = make([]byte, 0, PageSize+4)
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(start))
		out = binary.LittleEndian.AppendUint16(out, uint16(count))
		out = append(out, cur[start*4:w*4]...)
	}
	return out
}

func wordEq(a, b []byte, w int) bool {
	i := w * 4
	return binary.LittleEndian.Uint32(a[i:]) == binary.LittleEndian.Uint32(b[i:])
}

// ApplyDiff patches a page with an encoded diff.
func ApplyDiff(page, diff []byte) error {
	if len(page) != PageSize {
		panic("tmk: apply to non-page")
	}
	for off := 0; off < len(diff); {
		if off+4 > len(diff) {
			return fmt.Errorf("tmk: truncated diff header at %d", off)
		}
		start := int(binary.LittleEndian.Uint16(diff[off:]))
		count := int(binary.LittleEndian.Uint16(diff[off+2:]))
		off += 4
		if start+count > wordsPerPage || off+count*4 > len(diff) {
			return fmt.Errorf("tmk: diff run out of range (start=%d count=%d)", start, count)
		}
		copy(page[start*4:(start+count)*4], diff[off:off+count*4])
		off += count * 4
	}
	return nil
}
