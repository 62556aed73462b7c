package msg

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds returns representative wire messages covering every optional
// field. The checked-in corpus under testdata/fuzz/FuzzDecode mirrors
// these plus truncated/corrupt variants.
func fuzzSeeds() [][]byte {
	msgs := []*Message{
		{Kind: KPing, Seq: 1, From: 0, ReplyTo: 0},
		{Kind: KLockAcquire, Seq: 7, From: 2, ReplyTo: 2, Lock: 5, VC: []int32{1, 0, 3, 2}},
		{Kind: KLockGrant, Seq: 8, From: 1, ReplyTo: 2, Lock: 5, Intervals: []Interval{
			{Proc: 1, TS: 4, VC: []int32{0, 4, 1, 0}, Pages: []int32{3, 9}},
			{Proc: 3, TS: 1, VC: []int32{0, 0, 0, 1}, Pages: []int32{12}},
		}},
		{Kind: KBarrierArrive, Seq: 9, From: 3, ReplyTo: 3, Barrier: 2, Episode: 1,
			VC: []int32{5, 5, 5, 5}},
		{Kind: KDiffReq, Seq: 10, From: 0, ReplyTo: 0, DiffReqs: []DiffRange{
			{Page: 4, Proc: 1, FromTS: 0, ToTS: 3},
		}},
		{Kind: KDiffReply, Seq: 11, From: 1, ReplyTo: 1, Diffs: []Diff{
			{Page: 4, Proc: 1, TS: 2, Data: []byte{1, 0, 2, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}},
			{Page: 4, Proc: 1, TS: 3, Data: nil},
		}},
		{Kind: KPong, Seq: 12, From: 2, ReplyTo: 0, Page: 7,
			PageData: bytes.Repeat([]byte{0xab}, 256)},
		{Kind: KDistribute, Seq: 13, From: 0, ReplyTo: 0,
			Region: RegionInfo{ID: 1, StartPage: 0, Pages: 16, Bytes: 65536}},
	}
	var out [][]byte
	for _, m := range msgs {
		out = append(out, m.Encode())
	}
	// Corrupt variants: truncations and flipped flag bits.
	whole := msgs[2].Encode()
	out = append(out, whole[:5], whole[:len(whole)-3])
	flipped := append([]byte(nil), whole...)
	flipped[1] = 0xff // claim every optional field present
	out = append(out, flipped)
	return out
}

// corpusEntry renders one seed in the `go test fuzz v1` corpus format.
func corpusEntry(b []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
}

// verifyFuzzCorpus checks that every seed is checked in under
// testdata/fuzz/<target>; UPDATE_FUZZ_CORPUS=1 regenerates the files.
func verifyFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for i, b := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		want := corpusEntry(b)
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
	verifyFuzzCorpus(t, "FuzzDecode", fuzzSeeds())
}

// FuzzDecode drives Decode with arbitrary bytes: it must never panic, and
// anything it accepts must re-encode to a canonical fixed point
// (decode → encode → decode → encode yields identical bytes).
func FuzzDecode(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		enc := m.Encode()
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		enc2 := m2.Encode()
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", enc, enc2)
		}
	})
}
