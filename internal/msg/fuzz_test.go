package msg

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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
		// Page lists in run form: a band, bands beside a list, the int32 edge.
		{Kind: KBarrierRelease, Seq: 14, From: 0, ReplyTo: 3, Barrier: 1, Episode: 2, Intervals: []Interval{
			{Proc: 2, TS: 3, VC: []int32{1, 2, 3, 0}, Pages: []int32{40, 41, 42, 43, 44, 45, 46, 47}},
			{Proc: 1, TS: 2, VC: []int32{1, 2, 0, 0}, Pages: []int32{3, 9}},
			{Proc: 3, TS: 1, Pages: []int32{0, 1, 2, 3, 10, 11, 12, 13, 14}},
		}},
		{Kind: KBarrierArrive, Seq: 15, From: 1, ReplyTo: 1, Barrier: 1, Episode: 2, VC: []int32{0, 4}, Intervals: []Interval{
			{Proc: 1, TS: 4, Pages: []int32{math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 2}},
		}},
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
	// A band's run claiming more pages than its list declares.
	band := msgs[8].Encode()
	over := append([]byte(nil), band...)
	over[len(over)-4] = 0xff
	return append(out, band[:len(band)-3], over)
}

// corpusEntry renders one seed — the fuzz target's arguments — in the
// `go test fuzz v1` corpus format.
func corpusEntry(args ...[]byte) string {
	var sb strings.Builder
	sb.WriteString("go test fuzz v1\n")
	for _, b := range args {
		sb.WriteString("[]byte(" + strconv.Quote(string(b)) + ")\n")
	}
	return sb.String()
}

// verifyFuzzCorpus checks that every seed is checked in under
// testdata/fuzz/<target>; UPDATE_FUZZ_CORPUS=1 regenerates the files.
func verifyFuzzCorpus(t *testing.T, target string, seeds [][][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for i, args := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		want := corpusEntry(args...)
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
	var decode [][][]byte
	for _, b := range fuzzSeeds() {
		decode = append(decode, [][]byte{b})
	}
	verifyFuzzCorpus(t, "FuzzDecode", decode)
	verifyFuzzCorpus(t, "FuzzDecodeReuse", reuseSeeds())
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

// flagMessage returns a message carrying exactly the optional fields whose
// presence bits are set in flags, each list k elements long (data k bytes
// per element) and every value offset by k, so two such messages differ in
// every field they share.
func flagMessage(flags uint8, k int) *Message {
	m := &Message{Kind: KBarrierRelease, Seq: uint32(k), From: int32(k), ReplyTo: int32(k + 1),
		Lock: int32(k), Barrier: int32(k), Episode: int32(k), Page: int32(k)}
	ints := func(n, base int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(base + i)
		}
		return out
	}
	if flags&fVC != 0 {
		m.VC = ints(k, 100*k)
	}
	if flags&fIntervals != 0 {
		for i := 0; i < k; i++ {
			m.Intervals = append(m.Intervals, Interval{Proc: int32(i), TS: int32(k + i), VC: ints(k, 10*k), Pages: ints(k, 1000*k)})
		}
	}
	if flags&fDiffReqs != 0 {
		for i := 0; i < k; i++ {
			m.DiffReqs = append(m.DiffReqs, DiffRange{Page: int32(k + i), Proc: int32(i), FromTS: int32(k), ToTS: int32(2 * k)})
		}
	}
	if flags&fDiffs != 0 {
		for i := 0; i < k; i++ {
			m.Diffs = append(m.Diffs, Diff{Page: int32(k + i), Proc: int32(i), TS: int32(k), Data: bytes.Repeat([]byte{byte(k + i)}, k)})
		}
	}
	if flags&fPageData != 0 {
		m.PageData = bytes.Repeat([]byte{byte(k)}, 64*k)
	}
	if flags&fRegion != 0 {
		m.Region = RegionInfo{ID: int32(k), StartPage: int32(k), Pages: int32(k), Bytes: int64(k)}
	}
	return m
}

// reuseSeeds returns FuzzDecodeReuse's checked-in seeds: a message with
// every optional field and long lists, then one of each of the 64
// combinations of optional fields with short lists — the case where
// anything the first leaves behind would show — and a truncated second.
func reuseSeeds() [][][]byte {
	const all = fVC | fIntervals | fDiffReqs | fDiffs | fPageData | fRegion
	first := flagMessage(all, 5).Encode()
	var out [][][]byte
	for flags := uint8(0); flags <= all; flags++ {
		out = append(out, [][]byte{first, flagMessage(flags, 2).Encode()})
	}
	// A long run expanded into the backing, then a short list after it.
	long := flagMessage(fIntervals, 40).Encode()
	return append(out, [][]byte{first, first[:len(first)/2]}, [][]byte{long, flagMessage(fIntervals|fVC, 3).Encode()})
}

// FuzzDecodeReuse drives a Decoder with two arbitrary messages: decoding b
// into storage that last held a must equal a fresh Decode(b) — no list,
// optional field or backing byte of a survives — every list's capacity must
// be its length, so nothing of a is reachable past it, and the result must
// own its memory: rewriting b's buffer changes nothing.
func FuzzDecodeReuse(f *testing.F) {
	for _, args := range reuseSeeds() {
		f.Add(args[0], args[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		want, wantErr := Decode(b)
		var d Decoder
		d.Decode(a) // a may be anything: only what it leaves behind matters
		wire := bytes.Clone(b)
		got, err := d.Decode(wire)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reused decode error %v, fresh %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i := range wire {
			wire[i] ^= 0xA5
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded into used storage:\n got %+v\nwant %+v", got, want)
		}
		tight := cap(got.VC) == len(got.VC) && cap(got.Intervals) == len(got.Intervals) &&
			cap(got.DiffReqs) == len(got.DiffReqs) && cap(got.Diffs) == len(got.Diffs) &&
			cap(got.PageData) == len(got.PageData)
		for _, iv := range got.Intervals {
			tight = tight && cap(iv.VC) == len(iv.VC) && cap(iv.Pages) == len(iv.Pages)
		}
		for _, df := range got.Diffs {
			tight = tight && cap(df.Data) == len(df.Data)
		}
		if !tight {
			t.Fatalf("a list's capacity exceeds its length: %+v", got)
		}
	})
}
