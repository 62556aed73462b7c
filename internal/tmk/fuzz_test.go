package tmk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func applyDiffSeeds() [][]byte {
	return [][]byte{
		{},
		{0, 0, 1, 0, 1, 2, 3, 4},    // one run: word 0 := 01020304
		{0xff, 0xff, 0xff, 0xff},    // start/count far out of range
		{0, 0, 2, 0, 1, 2, 3, 4},    // count claims more data than present
		{0, 4, 1, 0, 9, 9, 9, 9, 1}, // trailing garbage after a run
		EncodeDiff(make([]byte, PageSize), bytes.Repeat([]byte{7}, PageSize)),
	}
}

func roundTripSeeds() [][]byte {
	return [][]byte{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		bytes.Repeat([]byte{0xff, 0x00}, 100),
		{0, 0, 0xaa, 0xff, 0x0f, 0xbb, 1, 1, 0xcc},
		// The states of an 8-byte word pair (pair p is words 2p, 2p+1):
		writeBytes(4, 8, 12, 19),           // run [1,5) ends on pair 2's low word
		writeBytes(12, 20, 24, 31),         // run [5,8) starts on pair 2's high word as [3,4) closes
		writeBytes(40, 55),                 // one-word runs: word 10 (low), word 13 (high)
		writeBytes(4080, 4084, 4088, 4095), // run [1020,1024) reaches word 1023
		writeBytes(4088),                   // only the last pair changes, its low word
		writeBytes(4095),                   // only the last pair changes, its high word
	}
}

// writeBytes is a FuzzDiffRoundTrip input whose twin is the zero page
// and whose current page has 0xa5 at each byte offset given.
func writeBytes(offs ...int) []byte {
	data := make([]byte, 3*len(offs)) // the twin's half: zeros
	for _, off := range offs {
		data = binary.LittleEndian.AppendUint16(data, uint16(off))
		data = append(data, 0xa5)
	}
	return data
}

// FuzzApplyDiff drives ApplyDiff with arbitrary diff bytes against a full
// page: it must either apply cleanly or return an error — never panic,
// and never touch memory outside the page.
func FuzzApplyDiff(f *testing.F) {
	for _, b := range applyDiffSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, diff []byte) {
		page := make([]byte, PageSize+8) // guard bytes past the page
		for i := range page {
			page[i] = 0x5a
		}
		err := ApplyDiff(page[:PageSize:PageSize], diff)
		_ = err // error or nil both acceptable
		for i := PageSize; i < len(page); i++ {
			if page[i] != 0x5a {
				t.Fatalf("ApplyDiff wrote past the page at +%d", i-PageSize)
			}
		}
	})
}

// FuzzDiffRoundTrip derives a (twin, current) page pair from the fuzz
// input, encodes the diff, and checks that the encoding is the
// word-at-a-time scan's byte for byte and that applying it to the twin
// reproduces the current page exactly. The input is split: the first
// half seeds the twin's contents, the rest is read as (offset, value)
// mutations to the current page.
func FuzzDiffRoundTrip(f *testing.F) {
	for _, b := range roundTripSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		twin := make([]byte, PageSize)
		half := len(data) / 2
		copy(twin, data[:half])
		cur := append([]byte(nil), twin...)
		for mut := data[half:]; len(mut) >= 3; mut = mut[3:] {
			off := int(binary.LittleEndian.Uint16(mut)) % PageSize
			cur[off] = mut[2]
		}
		diff := EncodeDiff(twin, cur)
		if want := refEncodeDiff(twin, cur); !bytes.Equal(diff, want) {
			t.Fatalf("encoding differs from the word-at-a-time scan (%d vs %d bytes)", len(diff), len(want))
		}
		got := MakeTwin(twin)
		if err := ApplyDiff(got, diff); err != nil {
			t.Fatalf("ApplyDiff of own encoding: %v", err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("round trip mismatch (%d mutations, %d-byte diff)", len(data[half:])/3, len(diff))
		}
	})
}

// verifyFuzzCorpus checks that every seed is checked in under
// testdata/fuzz/<target>; UPDATE_FUZZ_CORPUS=1 regenerates the files.
func verifyFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for i, b := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		got, err := os.ReadFile(path)
		if err == nil && string(got) == want {
			continue
		}
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("%s stale or missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", path, err)
	}
}

func TestFuzzCorpusCheckedIn(t *testing.T) {
	verifyFuzzCorpus(t, "FuzzApplyDiff", applyDiffSeeds())
	verifyFuzzCorpus(t, "FuzzDiffRoundTrip", roundTripSeeds())
}
