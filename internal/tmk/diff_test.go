package tmk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDiffEmpty(t *testing.T) {
	page := make([]byte, PageSize)
	twin := MakeTwin(page)
	if d := EncodeDiff(twin, page); len(d) != 0 {
		t.Errorf("diff of identical pages = %d bytes", len(d))
	}
}

func TestDiffRoundTripSingleWord(t *testing.T) {
	page := make([]byte, PageSize)
	twin := MakeTwin(page)
	page[100] = 0xAB
	d := EncodeDiff(twin, page)
	if len(d) != 8 { // header 4 + one word
		t.Errorf("single-word diff = %d bytes, want 8", len(d))
	}
	restore := MakeTwin(twin)
	if err := ApplyDiff(restore, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restore, page) {
		t.Error("apply did not reproduce the page")
	}
}

func TestDiffRunCoalescing(t *testing.T) {
	page := make([]byte, PageSize)
	twin := MakeTwin(page)
	// Contiguous dirty words 10..19 → single run.
	for w := 10; w < 20; w++ {
		page[w*4] = byte(w)
	}
	d := EncodeDiff(twin, page)
	if len(d) != 4+10*4 {
		t.Errorf("contiguous run diff = %d bytes, want %d", len(d), 4+10*4)
	}
}

func TestDiffWholePage(t *testing.T) {
	page := make([]byte, PageSize)
	twin := MakeTwin(page)
	for i := range page {
		page[i] = byte(i*7 + 1)
	}
	d := EncodeDiff(twin, page)
	if len(d) != 4+PageSize {
		t.Errorf("whole-page diff = %d bytes, want %d", len(d), 4+PageSize)
	}
}

func TestMakeTwinIsSnapshot(t *testing.T) {
	page := make([]byte, PageSize)
	page[0] = 1
	twin := MakeTwin(page)
	page[0] = 2
	if twin[0] != 1 {
		t.Error("twin aliases page")
	}
}

func TestApplyDiffRejectsCorrupt(t *testing.T) {
	page := make([]byte, PageSize)
	if err := ApplyDiff(page, []byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	// Run claiming 1024 words starting at word 1023.
	bad := []byte{0xFF, 0x03, 0x00, 0x04}
	if err := ApplyDiff(page, bad); err == nil {
		t.Error("out-of-range run accepted")
	}
	// Header fine but payload missing.
	short := []byte{0x00, 0x00, 0x02, 0x00, 1, 2, 3, 4}
	if err := ApplyDiff(page, short); err == nil {
		t.Error("short payload accepted")
	}
}

func TestDiffPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		r.Read(twin)
		page := MakeTwin(twin)
		// Dirty a random set of words.
		for k := r.Intn(200); k > 0; k-- {
			w := r.Intn(wordsPerPage)
			page[w*4+r.Intn(4)] ^= byte(1 + r.Intn(255))
		}
		d := EncodeDiff(twin, page)
		restore := MakeTwin(twin)
		if err := ApplyDiff(restore, d); err != nil {
			return false
		}
		return bytes.Equal(restore, page)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDiffPropertyDisjointWritersCommute(t *testing.T) {
	// The multiple-writer protocol relies on diffs of word-disjoint
	// writes applying in any order with the same result.
	rng := rand.New(rand.NewSource(5))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := make([]byte, PageSize)
		r.Read(base)
		a := MakeTwin(base)
		b := MakeTwin(base)
		// Writer A dirties even words, writer B odd words.
		for k := 0; k < 100; k++ {
			wa := r.Intn(wordsPerPage/2) * 2
			wb := r.Intn(wordsPerPage/2)*2 + 1
			a[wa*4] ^= 0x5A
			b[wb*4] ^= 0xA5
		}
		da := EncodeDiff(base, a)
		db := EncodeDiff(base, b)
		p1 := MakeTwin(base)
		p2 := MakeTwin(base)
		if ApplyDiff(p1, da) != nil || ApplyDiff(p1, db) != nil {
			return false
		}
		if ApplyDiff(p2, db) != nil || ApplyDiff(p2, da) != nil {
			return false
		}
		return bytes.Equal(p1, p2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestVCBasics(t *testing.T) {
	a := NewVC(4)
	b := NewVC(4)
	a[1] = 5
	if !a.Covers(b) || b.Covers(a) {
		t.Error("Covers wrong")
	}
	if !b.Before(a) || a.Before(b) {
		t.Error("Before wrong")
	}
	b[2] = 3
	if a.Covers(b) || b.Covers(a) || a.Before(b) || b.Before(a) {
		t.Error("concurrent clocks misclassified")
	}
	c := a.Clone()
	c.Join(b)
	if c[1] != 5 || c[2] != 3 {
		t.Errorf("Join = %v", c)
	}
	if c.Sum() != 8 {
		t.Errorf("Sum = %d", c.Sum())
	}
	a[0] = 9
	if c[0] == 9 {
		t.Error("Clone aliases source")
	}
}

func TestVCSumMonotoneInHappensBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := NewVC(n)
		for i := range a {
			a[i] = int32(r.Intn(100))
		}
		b := a.Clone()
		// Make b strictly after a.
		for k := 1 + r.Intn(5); k > 0; k-- {
			b[r.Intn(n)]++
		}
		return a.Before(b) && a.Sum() < b.Sum()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestIntervalStore(t *testing.T) {
	s := newIntervalStore(3)
	r2 := s.add(1, 2, VC{0, 2, 0}, []int32{6})
	r1 := s.add(1, 1, VC{0, 1, 0}, []int32{5})
	r3 := s.add(2, 1, VC{0, 2, 1}, []int32{5})
	if r1 == nil || r2 == nil || r3 == nil {
		t.Fatal("adds failed")
	}
	if s.add(1, 1, VC{0, 1, 0}, []int32{5}) != nil {
		t.Error("duplicate add succeeded")
	}
	if s.get(1, 2) != r2 || s.get(0, 1) != nil {
		t.Error("get wrong")
	}
	// since(zero) must return all three in happens-before-sum order.
	got := s.since(NewVC(3), nil)
	if len(got) != 3 {
		t.Fatalf("since(0) = %d records", len(got))
	}
	if got[0] != r1 || got[1] != r2 || got[2] != r3 {
		t.Errorf("order: %v %v %v", got[0], got[1], got[2])
	}
	// since({0,1,0}) skips r1.
	got = s.since(VC{0, 1, 0}, nil)
	if len(got) != 2 || got[0] != r2 {
		t.Errorf("since filter wrong: %d recs", len(got))
	}
	count := 0
	s.all(func(*intervalRec) { count++ })
	if count != 3 {
		t.Errorf("all visited %d", count)
	}
}

func TestPageMetaNotices(t *testing.T) {
	tp := &Proc{n: 3}
	r := &Region{StartPage: 7, NPages: 1}
	tp.materialize(r, true)
	pm := r.page(7)
	if !pm.addNotice(1, 3) {
		t.Error("uncovered notice not flagged")
	}
	if pm.addNotice(1, 3) != true {
		t.Error("duplicate notice should still report uncovered")
	}
	pm.coverTo(1, 3)
	if pm.addNotice(1, 2) {
		t.Error("covered notice flagged")
	}
	pm.addNotice(2, 5)
	if got := pm.writer(1).missing(); len(got) != 0 {
		t.Errorf("writer 1 missing %v", got)
	}
	if got := pm.writer(2).missing(); len(got) != 1 || got[0] != 5 {
		t.Errorf("writer 2 missing %v", got)
	}
	if !pm.isMissingAny(0) {
		t.Error("isMissingAny = false")
	}
	pm.coverTo(2, 5)
	if pm.isMissingAny(0) {
		t.Error("isMissingAny = true after covering")
	}
}

// refEncodeDiff is the word-at-a-time scan — one byte compare after
// another, a run closed at the first equal word — kept as the wire
// format's oracle: EncodeDiff, which scans word pairs, must produce the
// same bytes.
func refEncodeDiff(twin, cur []byte) []byte {
	eq := func(w int) bool {
		i := w * 4
		return twin[i] == cur[i] && twin[i+1] == cur[i+1] &&
			twin[i+2] == cur[i+2] && twin[i+3] == cur[i+3]
	}
	var out []byte
	w := 0
	for w < wordsPerPage {
		if eq(w) {
			w++
			continue
		}
		start := w
		for w < wordsPerPage && !eq(w) {
			w++
		}
		out = append(out, byte(start), byte(start>>8), byte(w-start), byte((w-start)>>8))
		out = append(out, cur[start*4:w*4]...)
	}
	return out
}

func TestEncodeDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		page := make([]byte, PageSize)
		rng.Read(page)
		twin := MakeTwin(page)
		// Dirty a random set of runs, including odd/even alignments and
		// single-word changes at both page edges.
		for k := 0; k < 1+rng.Intn(8); k++ {
			start := rng.Intn(wordsPerPage)
			count := 1 + rng.Intn(16)
			for w := start; w < start+count && w < wordsPerPage; w++ {
				page[w*4+rng.Intn(4)] ^= byte(1 + rng.Intn(255))
			}
		}
		if trial%3 == 0 {
			page[0] ^= 0xFF
			page[PageSize-1] ^= 0xFF
		}
		got, want := EncodeDiff(twin, page), refEncodeDiff(twin, page)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: fast diff differs from reference (%d vs %d bytes)",
				trial, len(got), len(want))
		}
	}

	// Random pages at every density, from clean to fully written. A dirty
	// word changes in byte 0 or byte 3, the lowest or the highest bits of
	// its half of an 8-byte pair, and the diff applied to the twin must
	// give back the page.
	for _, p := range []float64{0, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0 / 2, 3.0 / 4, 1} {
		for trial := 0; trial < 300; trial++ {
			twin := make([]byte, PageSize)
			rng.Read(twin)
			cur := MakeTwin(twin)
			for w := 0; w < wordsPerPage; w++ {
				if rng.Float64() < p {
					cur[w*4+3*rng.Intn(2)] ^= byte(1 + rng.Intn(255))
				}
			}
			diff := EncodeDiff(twin, cur)
			if want := refEncodeDiff(twin, cur); !bytes.Equal(diff, want) {
				t.Fatalf("density %v, trial %d: EncodeDiff gives %d bytes, reference %d", p, trial, len(diff), len(want))
			}
			if err := ApplyDiff(twin, diff); err != nil || !bytes.Equal(twin, cur) {
				t.Fatalf("density %v, trial %d: applying the diff to the twin does not give the page (err %v)", p, trial, err)
			}
		}
	}

	// The patterns writers make: the benchmarks' shapes (nothing, a word,
	// every other word or pair from word 0, a 1 KB run, the whole page), a
	// sprinkle, every other word or pair from word 1, nearly all of the
	// page, and runs of one to six words that start at odd and even words
	// and touch the page's first and last words. Each pattern changes the
	// low byte of its words, then the high byte, so a difference shows in
	// either half of an 8-byte compare; appendDiff must also leave what
	// the buffer already holds in front of the encoding.
	patterns := append(diffShapes(),
		diffShape{"1%", func(int) bool { return rng.Intn(100) == 0 }},
		diffShape{"every other word from 1", func(w int) bool { return w%2 == 1 }},
		diffShape{"every other pair from 1", func(w int) bool { return (w+3)%4 < 2 }},
		diffShape{"90%", func(int) bool { return rng.Intn(10) != 0 }},
	)
	for _, start := range []int{0, 1, 2, 3, 510, 511, 1017, 1018, 1019, 1020, 1021, 1022, 1023} {
		for n := 1; n <= 6 && start+n <= wordsPerPage; n++ {
			lo, hi := start, start+n
			patterns = append(patterns, diffShape{fmt.Sprintf("run [%d,%d)", lo, hi),
				func(w int) bool { return w >= lo && w < hi }})
			patterns = append(patterns, diffShape{fmt.Sprintf("runs [0,%d) and [%d,%d)", n, lo, hi),
				func(w int) bool { return w < n || w >= lo && w < hi }})
		}
	}
	prefix := []byte("kept")
	for _, p := range patterns {
		for _, b := range []int{0, 3} {
			twin := make([]byte, PageSize)
			rng.Read(twin)
			cur := append([]byte(nil), twin...)
			for w := 0; w < wordsPerPage; w++ {
				if p.dirty(w) {
					cur[w*4+b] ^= byte(1 + rng.Intn(255))
				}
			}
			want := refEncodeDiff(twin, cur)
			if got := EncodeDiff(twin, cur); !bytes.Equal(got, want) {
				t.Errorf("%s, byte %d: EncodeDiff gives %d bytes, reference %d", p.name, b, len(got), len(want))
			}
			got := appendDiff(append([]byte(nil), prefix...), twin, cur)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%s, byte %d: appendDiff after %d bytes differs from the reference", p.name, b, len(prefix))
			}
		}
	}
}

// A diffShape names the words of a page a writer changes.
type diffShape struct {
	name  string
	dirty func(w int) bool
}

// diffShapes are the shapes the codec benchmarks time: a clean page, one
// word, every other word, every other pair (red-black SOR's rows), one
// 1 KB run and a whole page.
func diffShapes() []diffShape {
	return []diffShape{
		{"clean", func(int) bool { return false }},
		{"one-word", func(w int) bool { return w == 517 }},
		{"every-other-word", func(w int) bool { return w%2 == 0 }},
		{"every-other-pair", func(w int) bool { return w%4 < 2 }},
		{"1KB-run", func(w int) bool { return w >= 256 && w < 512 }},
		{"whole-page", func(int) bool { return true }},
	}
}

// shapePages returns a twin and a current page differing in the words
// dirty names.
func shapePages(dirty func(w int) bool) (twin, cur []byte) {
	twin = make([]byte, PageSize)
	for i := range twin {
		twin[i] = byte(i * 7)
	}
	cur = MakeTwin(twin)
	for w := 0; w < wordsPerPage; w++ {
		if dirty(w) {
			cur[w*4]++
		}
	}
	return twin, cur
}

func BenchmarkEncodeDiff(b *testing.B) {
	for _, s := range diffShapes() {
		b.Run(s.name, func(b *testing.B) {
			twin, cur := shapePages(s.dirty)
			buf := make([]byte, 0, PageSize+4)
			b.SetBytes(PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendDiff(buf[:0], twin, cur)
			}
		})
	}
}

func BenchmarkApplyDiff(b *testing.B) {
	for _, s := range diffShapes() {
		b.Run(s.name, func(b *testing.B) {
			twin, cur := shapePages(s.dirty)
			diff := EncodeDiff(twin, cur)
			page := MakeTwin(twin)
			b.SetBytes(int64(len(diff)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ApplyDiff(page, diff); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
