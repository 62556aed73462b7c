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
// each [u16 word offset][u16 word count][count × 4 bytes of new data],
// in ascending word order, a run being a maximal stretch of changed
// 4-byte words. An unchanged page encodes to nil.
//
// The page is scanned once, as 512 pairs of words through 8-byte loads:
// a clean pair — the common case, pages are mostly clean — costs one
// compare, and a changed pair opens, extends or closes the current run
// by which of its two words differ. A run is written when it closes.
func EncodeDiff(twin, cur []byte) []byte { return appendDiff(nil, twin, cur) }

// appendDiff is EncodeDiff into the caller's buffer: the encoding is
// appended to out, and only a nil out is allocated for.
func appendDiff(out, twin, cur []byte) []byte {
	if len(twin) != PageSize || len(cur) != PageSize {
		panic("tmk: diff of non-page")
	}
	start := -1 // byte offset of the open run, -1 when none is open
	for i := 0; i < PageSize; i += 8 {
		x := binary.LittleEndian.Uint64(twin[i:i+8]) ^ binary.LittleEndian.Uint64(cur[i:i+8])
		if x == 0 {
			if start >= 0 {
				out = appendRun(out, cur, start, i)
				start = -1
			}
			continue
		}
		if uint32(x) == 0 { // only the high word changed
			if start >= 0 {
				out = appendRun(out, cur, start, i)
			}
			start = i + 4
		} else if start < 0 {
			start = i
		}
		if x>>32 == 0 { // only the low word changed: the run ends with it
			out = appendRun(out, cur, start, i+4)
			start = -1
		}
	}
	if start >= 0 {
		out = appendRun(out, cur, start, PageSize)
	}
	return out
}

// appendRun appends the run of cur's bytes [lo, hi) with its header.
func appendRun(out, cur []byte, lo, hi int) []byte {
	if out == nil {
		// Worst case over the whole page: r runs and c changed words
		// encode to 4r+4c bytes, and r ≤ 512 with c ≤ 1025−r, so 4100
		// bytes always suffice — one allocation per diff.
		out = make([]byte, 0, PageSize+4)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(lo/4)|uint32((hi-lo)/4)<<16)
	if hi-lo == 4 {
		return binary.LittleEndian.AppendUint32(out, binary.LittleEndian.Uint32(cur[lo:hi]))
	}
	return append(out, cur[lo:hi]...)
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
		if count == 1 {
			binary.LittleEndian.PutUint32(page[start*4:], binary.LittleEndian.Uint32(diff[off:]))
		} else {
			copy(page[start*4:(start+count)*4], diff[off:off+count*4])
		}
		off += count * 4
	}
	return nil
}
