package msg

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KLockAcquire.String() != "lock-acquire" {
		t.Error(KLockAcquire.String())
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error(Kind(200).String())
	}
}

func TestIsRequest(t *testing.T) {
	reqs := []Kind{KLockAcquire, KBarrierArrive, KDiffReq, KDistribute, KDistributeCommit, KPing}
	reps := []Kind{KLockGrant, KBarrierRelease, KDiffReply, KAck, KPong, KHeartbeat}
	for _, k := range reqs {
		if !k.IsRequest() {
			t.Errorf("%v should be a request", k)
		}
	}
	for _, k := range reps {
		if k.IsRequest() {
			t.Errorf("%v should be a reply", k)
		}
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b := m.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v (len=%d)", err, len(b))
	}
	return got
}

func msgsEqual(a, b *Message) bool {
	norm := func(m *Message) Message {
		c := *m
		if len(c.VC) == 0 {
			c.VC = nil
		}
		if len(c.Intervals) == 0 {
			c.Intervals = nil
		}
		for i := range c.Intervals {
			if len(c.Intervals[i].Pages) == 0 {
				c.Intervals[i].Pages = nil
			}
			if len(c.Intervals[i].VC) == 0 {
				c.Intervals[i].VC = nil
			}
		}
		if len(c.DiffReqs) == 0 {
			c.DiffReqs = nil
		}
		if len(c.Diffs) == 0 {
			c.Diffs = nil
		}
		for i := range c.Diffs {
			if len(c.Diffs[i].Data) == 0 {
				c.Diffs[i].Data = nil
			}
		}
		if len(c.PageData) == 0 {
			c.PageData = nil
		}
		return c
	}
	na, nb := norm(a), norm(b)
	return reflect.DeepEqual(na, nb)
}

func TestRoundTripSimple(t *testing.T) {
	m := &Message{Kind: KLockAcquire, Seq: 42, From: 3, ReplyTo: 3, Lock: 7, VC: []int32{1, 2, 3, 4}}
	got := roundTrip(t, m)
	if !msgsEqual(m, got) {
		t.Errorf("round trip mismatch:\n  in: %+v\n out: %+v", m, got)
	}
}

func TestRoundTripAllFields(t *testing.T) {
	m := &Message{
		Kind:    KBarrierRelease,
		Seq:     99,
		From:    0,
		ReplyTo: 5,
		Lock:    -1,
		Barrier: 2,
		Episode: 17,
		Page:    321,
		Region:  RegionInfo{ID: 4, StartPage: 100, Pages: 16, Bytes: 65536},
		VC:      []int32{9, 8, 7},
		Intervals: []Interval{
			{Proc: 1, TS: 5, Pages: []int32{10, 11, 12}},
			{Proc: 2, TS: 9, Pages: nil},
		},
		DiffReqs: []DiffRange{{Page: 10, Proc: 1, FromTS: 2, ToTS: 5}},
		Diffs: []Diff{
			{Page: 10, Proc: 1, TS: 3, Data: []byte{1, 2, 3, 4, 5}},
			{Page: 11, Proc: 1, TS: 4, Data: nil},
		},
		PageData: bytes.Repeat([]byte{0xAA}, 4096),
	}
	got := roundTrip(t, m)
	if !msgsEqual(m, got) {
		t.Errorf("round trip mismatch:\n  in: %+v\n out: %+v", m, got)
	}
}

func TestSmallRequestIsSmall(t *testing.T) {
	// The paper preposts many small buffers because "most asynchronous
	// requests are small, typically of the order of eight bytes". Our
	// encoded bare requests must stay tiny (≤ 32 bytes → GM class ≤ 5).
	m := &Message{Kind: KPing, Seq: 1, From: 2, ReplyTo: 2, Page: 77, Lock: -1}
	if n := m.EncodedSize(); n > 32 {
		t.Errorf("bare request encodes to %d bytes, want ≤ 32", n)
	}
}

func TestPageReplySizeDominatedByPage(t *testing.T) {
	m := &Message{Kind: KPong, Seq: 1, From: 2, PageData: make([]byte, 4096)}
	n := m.EncodedSize()
	if n < 4096 || n > 4096+64 {
		t.Errorf("page-sized reply = %d bytes, want 4096 + small header", n)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &Message{Kind: KBarrierArrive, Seq: 5, From: 1, VC: []int32{1, 2, 3},
		Intervals: []Interval{{Proc: 1, TS: 2, Pages: []int32{5}}}}
	b := m.Encode()
	for cut := 0; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			// Some prefixes can decode "successfully" only if all flagged
			// fields happen to be complete; with flags set this must fail.
			t.Errorf("Decode of %d/%d-byte prefix succeeded", cut, len(b))
		}
	}
}

func TestDecodeCorruptCountRejected(t *testing.T) {
	m := &Message{Kind: KDiffReply, Seq: 5, From: 1, Diffs: []Diff{{Page: 1, Proc: 0, TS: 1, Data: []byte{1}}}}
	b := m.Encode()
	// Blow up the diff data length field (last u32 before data).
	b[len(b)-5] = 0xFF
	b[len(b)-4] = 0xFF
	if _, err := Decode(b); err == nil {
		t.Error("corrupt length accepted")
	}

	// A run-form page list ends the message, its count word and runs
	// last: rewrite them. Each corrupt list is refused, and refused
	// before any allocation its declared pages would ask for.
	release := func(pages ...int32) []byte {
		return (&Message{Kind: KBarrierRelease, Seq: 6, Intervals: []Interval{{Proc: 1, TS: 2, Pages: pages}}}).Encode()
	}
	band := func(first, n int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = first + int32(i)
		}
		return out
	}
	// runs rewrites the tail of b: the count word, then the runs.
	runs := func(b []byte, declared uint32, rs ...int32) []byte {
		tail := b[len(b)-4-4*len(rs):]
		put := func(off int, v uint32) {
			tail[off], tail[off+1], tail[off+2], tail[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		put(0, runForm|declared)
		for i, v := range rs {
			put(4+4*i, uint32(v))
		}
		return b
	}
	twoBands := append(band(0, 5), band(100, 5)...)
	for _, c := range []struct {
		name string
		wire []byte
	}{
		{"zero-length run", runs(release(twoBands...), 10, 0, 0, 100, 10)},
		{"negative run", runs(release(twoBands...), 10, 0, -1, 100, 11)},
		{"run past MaxInt32", runs(release(band(10, 10)...), 10, math.MaxInt32-5, 10)},
		{"runs past the declared count", runs(release(twoBands...), 10, 0, 5, 100, 6)},
		{"one run past the declared count", runs(release(band(10, 10)...), 10, 10, 11)},
		{"runs short of the declared count", runs(release(band(10, 10)...), 11, 10, 10)},
		{"one run past maxNoticePages", runs(release(band(10, 10)...), maxNoticePages+1, 0, maxNoticePages+1)},
		{"a declared count of 2³¹−1", runs(release(band(10, 10)...), math.MaxInt32, 0, math.MaxInt32)},
		{"runs past maxNoticePages in all", (&Message{Kind: KBarrierRelease, Seq: 6, Intervals: []Interval{
			{Proc: 1, TS: 2, Pages: band(0, maxNoticePages/2+1)}, {Proc: 2, TS: 2, Pages: band(0, maxNoticePages/2)}}}).Encode()},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(c.wire)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10 {
			t.Fatalf("%s: refusing it allocated %d bytes", c.name, n) // before a larger case asks for more
		}
	}
	// At the limit a message still decodes.
	at := &Message{Kind: KBarrierRelease, Seq: 6, Intervals: []Interval{
		{Proc: 1, TS: 2, Pages: band(0, maxNoticePages/2)}, {Proc: 2, TS: 2, Pages: band(0, maxNoticePages/2)}}}
	if got, err := Decode(at.Encode()); err != nil || !msgsEqual(at, got) {
		t.Errorf("a release of maxNoticePages pages in runs does not round-trip: %v", err)
	}
}

// randPages returns a write-notice list of one of the shapes the codec
// must carry exactly: unsorted, sorted bands, duplicates, a single page,
// jacobi's 1,600-page setup run, and runs at the int32 edges.
func randPages(rng *rand.Rand) []int32 {
	var out []int32
	switch rng.Intn(6) {
	case 0: // unsorted, rarely consecutive
		for i := rng.Intn(10); i > 0; i-- {
			out = append(out, rng.Int31n(1<<20))
		}
	case 1: // sorted bands with gaps
		pg := rng.Int31n(1 << 20)
		for i := rng.Intn(5); i > 0; i-- {
			pg += rng.Int31n(4)
			for j := 1 + rng.Intn(40); j > 0; j-- {
				out = append(out, pg)
				pg++
			}
		}
	case 2: // duplicates and near-runs
		for i := rng.Intn(20); i > 0; i-- {
			out = append(out, rng.Int31n(6))
		}
	case 3:
		out = []int32{rng.Int31()}
	case 4:
		first := rng.Int31n(1 << 20)
		for i := int32(0); i < 1600; i++ {
			out = append(out, first+i)
		}
	case 5: // a run ending at MaxInt32, then the wrap, then a run from MinInt32
		for pg := int32(math.MaxInt32 - rng.Int31n(4)); ; pg++ {
			out = append(out, pg)
			if pg == math.MaxInt32 {
				break
			}
		}
		for i := int32(0); i < 1+rng.Int31n(4); i++ {
			out = append(out, math.MinInt32+i)
		}
	}
	return out
}

// TestPageListsNeverGrow: whatever its shape, an interval's page list
// encodes to at most its count word and one int32 per page, so no message
// is longer than it was when every page travelled as an int32 of its own,
// and a list of runs wider than two pages is shorter than that.
func TestPageListsNeverGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bare := len((&Message{Kind: KBarrierRelease, Intervals: []Interval{{Proc: 1, TS: 2}}}).Encode())
	for i := 0; i < 2000; i++ {
		pages := randPages(rng)
		m := &Message{Kind: KBarrierRelease, Intervals: []Interval{{Proc: 1, TS: 2, Pages: pages}}}
		n := len(m.Encode()) - bare
		if n > 4*len(pages) {
			t.Fatalf("%d pages encode to %d bytes, more than %d: %v", len(pages), n, 4*len(pages), pages)
		}
		if runs := pageRuns(pages); 2*runs < len(pages) && n != 8*runs {
			t.Fatalf("%d pages in %d runs encode to %d bytes, want %d", len(pages), runs, n, 8*runs)
		}
	}
	band := make([]int32, 1600)
	for i := range band {
		band[i] = int32(640 + i)
	}
	m := &Message{Kind: KBarrierRelease, Intervals: []Interval{{Proc: 0, TS: 1, Pages: band}}}
	if n := len(m.Encode()) - bare; n != 8 {
		t.Errorf("a 1,600-page band encodes to %d bytes, want one 8-byte run", n)
	}
	one := &Message{Kind: KBarrierRelease, Intervals: []Interval{{Proc: 0, TS: 1, Pages: []int32{7}}}}
	if n := len(one.Encode()) - bare; n != 4 {
		t.Errorf("a one-page notice encodes to %d bytes, want 4", n)
	}
}

func randMessage(rng *rand.Rand) *Message {
	m := &Message{
		Kind:    Kind(rng.Intn(int(KDistributeCommit)) + 1),
		Seq:     rng.Uint32(),
		From:    int32(rng.Intn(256)),
		ReplyTo: int32(rng.Intn(256)),
		Lock:    int32(rng.Intn(1000) - 1),
		Barrier: int32(rng.Intn(100)),
		Episode: int32(rng.Intn(1 << 20)),
		Page:    int32(rng.Intn(1 << 20)),
	}
	if rng.Intn(2) == 0 {
		m.VC = make([]int32, rng.Intn(32))
		for i := range m.VC {
			m.VC[i] = rng.Int31()
		}
	}
	if rng.Intn(2) == 0 {
		m.Intervals = make([]Interval, rng.Intn(5))
		for i := range m.Intervals {
			iv := Interval{Proc: int32(rng.Intn(64)), TS: rng.Int31()}
			if rng.Intn(2) == 0 {
				iv.VC = make([]int32, rng.Intn(16))
				for j := range iv.VC {
					iv.VC[j] = rng.Int31()
				}
			}
			iv.Pages = randPages(rng)
			m.Intervals[i] = iv
		}
	}
	if rng.Intn(2) == 0 {
		m.DiffReqs = make([]DiffRange, rng.Intn(6))
		for i := range m.DiffReqs {
			m.DiffReqs[i] = DiffRange{Page: rng.Int31n(1 << 20), Proc: int32(rng.Intn(64)),
				FromTS: rng.Int31(), ToTS: rng.Int31()}
		}
	}
	if rng.Intn(2) == 0 {
		m.Diffs = make([]Diff, rng.Intn(4))
		for i := range m.Diffs {
			d := Diff{Page: rng.Int31n(1 << 20), Proc: int32(rng.Intn(64)), TS: rng.Int31()}
			d.Data = make([]byte, rng.Intn(200))
			rng.Read(d.Data)
			m.Diffs[i] = d
		}
	}
	if rng.Intn(3) == 0 {
		m.PageData = make([]byte, rng.Intn(5000))
		rng.Read(m.PageData)
	}
	if rng.Intn(4) == 0 {
		m.Region = RegionInfo{ID: rng.Int31n(100), StartPage: rng.Int31n(1 << 20),
			Pages: rng.Int31n(1 << 16), Bytes: rng.Int63n(1 << 30)}
	}
	return m
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m := randMessage(rng)
		b := m.Encode()
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("iteration %d: Decode: %v", i, err)
		}
		if !msgsEqual(m, got) {
			t.Fatalf("iteration %d: mismatch\n  in: %+v\n out: %+v", i, m, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMessage(r)
		return bytes.Equal(m.Encode(), m.Encode())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		m := randMessage(rng)
		enc := m.Encode()
		if m.EncodedSize() != len(enc) {
			t.Fatal("EncodedSize disagrees with Encode")
		}
		if cap(enc) != len(enc) {
			t.Fatalf("Encode's buffer has capacity %d for %d bytes, want exactly the size", cap(enc), len(enc))
		}
		if i == 0 {
			if n := testing.AllocsPerRun(10, func() { m.Encode() }); n != 1 {
				t.Errorf("Encode allocates %v times, want once", n)
			}
		}
	}
	// Both forms of a page list, side by side in one message.
	for i := 0; i < 200; i++ {
		m := &Message{Kind: KLockGrant, Intervals: []Interval{
			{Proc: 1, TS: 3, VC: []int32{1, 3}, Pages: randPages(rng)}, {Proc: 2, TS: 1, Pages: randPages(rng)}}}
		if n, enc := m.EncodedSize(), m.Encode(); n != len(enc) {
			t.Fatalf("EncodedSize %d, Encode %d bytes, for pages %v and %v", n, len(enc), m.Intervals[0].Pages, m.Intervals[1].Pages)
		}
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	// Corrupt or adversarial input must yield an error, never a panic or
	// a huge allocation.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %x: %v", b, r)
				}
			}()
			_, _ = Decode(b)
		}()
	}
}

func TestDecodeFlippedBitsNeverPanic(t *testing.T) {
	m := &Message{Kind: KBarrierRelease, Seq: 7, From: 1,
		Intervals: []Interval{{Proc: 2, TS: 9, VC: []int32{1, 2, 3}, Pages: []int32{4, 5}}},
		Diffs:     []Diff{{Page: 4, Proc: 2, TS: 9, Data: []byte{1, 2, 3, 4}}}}
	base := m.Encode()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), base...)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on flipped input: %v", r)
				}
			}()
			_, _ = Decode(b)
		}()
	}
}

// TestDiffSizesMatchEncode: the budget helpers a diff exchange is cut by
// agree with Encode at and around the cap.
func TestDiffSizesMatchEncode(t *testing.T) {
	for _, limit := range []int{64, 1000, 32 * 1024} {
		k := DiffRangesWithin(limit)
		fits := &Message{Kind: KDiffReq, Seq: 1, DiffReqs: make([]DiffRange, k)}
		over := &Message{Kind: KDiffReq, Seq: 1, DiffReqs: make([]DiffRange, k+1)}
		if len(fits.Encode()) > limit || len(over.Encode()) <= limit {
			t.Errorf("limit %d: %d ranges encode to %d bytes, %d to %d", limit, k, len(fits.Encode()), k+1, len(over.Encode()))
		}
	}
	diffs := []Diff{{Page: 3, Proc: 1, TS: 2, Data: make([]byte, 12)}, {Page: 4, Proc: 1, TS: 5, Data: make([]byte, 40)}}
	rep := &Message{Kind: KDiffReply, Seq: 9, Diffs: diffs}
	if got, want := DiffReplySize(2, 52), len(rep.Encode()); got != want {
		t.Errorf("DiffReplySize(2, 52) = %d, Encode = %d", got, want)
	}
}

// TestDecodeOwnsItsMemory: a decoded message keeps nothing of the buffer it
// came from — the transports re-post that buffer at once — and costs the
// same few allocations however many intervals or diffs it carries: one
// backing holds every VC and page list, one every diff's data.
func TestDecodeOwnsItsMemory(t *testing.T) {
	release := func(k int) *Message {
		m := &Message{Kind: KBarrierRelease, Seq: 3, From: 0, ReplyTo: 2, Barrier: 1, Episode: 4}
		for i := 0; i < k; i++ {
			vc := make([]int32, 16)
			for j := range vc {
				vc[j] = int32(i*16 + j)
			}
			m.Intervals = append(m.Intervals, Interval{Proc: int32(i % 16), TS: int32(i + 1), VC: vc,
				Pages: []int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)}})
		}
		return m
	}
	reply := func(k int) *Message {
		m := &Message{Kind: KDiffReply, Seq: 5, From: 1, ReplyTo: 1}
		for i := 0; i < k; i++ {
			m.Diffs = append(m.Diffs, Diff{Page: int32(i), Proc: 1, TS: int32(i + 2),
				Data: bytes.Repeat([]byte{byte(i + 1)}, 4+8*(i+1))})
		}
		return m
	}
	for _, c := range []struct {
		name string
		make func(k int) *Message
	}{{"barrier-release", release}, {"diff-reply", reply}} {
		allocs := map[int]float64{}
		for _, k := range []int{1, 16} {
			want := c.make(k)
			wire := want.Encode()
			got, err := Decode(wire)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, k, err)
			}
			for i := range wire {
				wire[i] = 0xA5 // the transport re-posts the receive buffer
			}
			if !msgsEqual(want, got) {
				t.Errorf("%s k=%d: the decoded message changed with its input buffer:\n want %+v\n  got %+v", c.name, k, want, got)
			}
			wire = want.Encode()
			allocs[k] = testing.AllocsPerRun(20, func() { Decode(wire) })
		}
		if allocs[1] != allocs[16] {
			t.Errorf("%s: Decode allocates %v objects for 1 element, %v for 16", c.name, allocs[1], allocs[16])
		}
	}
}
