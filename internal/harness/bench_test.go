package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateSuiteDirection pins the gate's one rule: beyond the tolerance
// (the flag defaults, max(500 ns, 2%), unless the case asks for exactness)
// only a worsening fails — a time that fell or a rate that rose is
// reported as improved, like an added row, a removed row always fails, and
// zero tolerance means zero.
func TestGateSuiteDirection(t *testing.T) {
	cases := []struct {
		name     string
		unit     string
		old, cur int64 // cur < 0: the row is absent from the regenerated suite
		added    bool  // the row is absent from the checked-in suite
		exact    bool  // gate at zero tolerance instead of the defaults
		want     string
	}{
		{"time much faster", "ns", 270_090_895, 33_366_890, false, false, gateImproved},
		{"time much slower", "ns", 33_366_890, 270_090_895, false, false, gateFail},
		{"per-op faster past 2%", "ns/op", 100_000, 97_000, false, false, gateImproved},
		{"per-op slower past 2%", "ns/op", 100_000, 103_000, false, false, gateFail},
		{"per-op within 2%", "ns/op", 100_000, 101_900, false, false, gateMoved},
		{"per-op faster within 2%", "ns/op", 100_000, 98_100, false, false, gateMoved},
		{"small row inside the 500 ns floor", "ns/op", 8_944, 9_400, false, false, gateMoved},
		{"small row past the 500 ns floor", "ns/op", 8_944, 9_500, false, false, gateFail},
		{"small row faster past the floor", "ns", 8_944, 8_000, false, false, gateImproved},
		{"rate higher", "B/s", 135_838_804, 233_937_041, false, false, gateImproved},
		{"rate lower", "B/s", 233_937_041, 135_838_804, false, false, gateFail},
		{"rate within 2%", "B/s", 233_937_041, 230_000_000, false, false, gateMoved},
		{"unchanged", "ns", 21_670_000, 21_670_000, false, false, ""},
		{"added time row", "ns", 0, 180_154_000, true, false, gateNew},
		{"added rate row", "B/s", 0, 1, true, false, gateNew},
		{"removed time row", "ns", 55_632, -1, false, false, gateFail},
		{"removed rate row", "B/s", 15_650_829, -1, false, false, gateFail},
		{"zero tolerance 1 ns worse", "ns", 21_670_000, 21_670_001, false, true, gateFail},
		{"zero tolerance 1 ns better", "ns", 21_670_000, 21_669_999, false, true, gateImproved},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := &BenchSuite{Schema: BenchSchema, Suite: "t"}
			cur := &BenchSuite{Schema: BenchSchema, Suite: "t"}
			if !tc.added {
				old.Entries = []BenchEntry{{Name: "row", Transport: "rdmagm", Nodes: 4, Value: tc.old, Unit: tc.unit}}
			}
			if tc.cur >= 0 {
				cur.Entries = []BenchEntry{{Name: "row", Transport: "rdmagm", Nodes: 4, Value: tc.cur, Unit: tc.unit}}
			}
			relTol, absNs := GateRelTol, int64(GateAbsNs)
			if tc.exact {
				relTol, absNs = 0, 0
			}
			rep := gateSuite(old, cur, relTol, absNs)
			got := ""
			if len(rep.Moved) > 0 {
				got = rep.Moved[0].Verdict
			}
			if got != tc.want || len(rep.Moved) > 1 {
				t.Errorf("%d → %d %s gated as %q (%+v), want %q", tc.old, tc.cur, tc.unit, got, rep, tc.want)
			}
			var out bytes.Buffer
			if ok := PrintGate(&out, []GateReport{rep}); ok != (tc.want != gateFail) {
				t.Errorf("PrintGate passed=%v for a %q row:\n%s", ok, tc.want, out.String())
			}
			if tc.want != "" && !strings.Contains(out.String(), tc.want+" ") {
				t.Errorf("a %s row is not printed as such:\n%s", tc.want, out.String())
			}
		})
	}
}

// movedRows is the gate at zero tolerance, as text: every row in which the
// regenerated suite differs from the checked-in one.
func movedRows(checkedIn, regenerated *BenchSuite) string {
	var out strings.Builder
	PrintGate(&out, []GateReport{gateSuite(checkedIn, regenerated, 0, 0)})
	return out.String()
}

// TestBenchReproducibleByteIdentical regenerates the whole bench
// trajectory, once, and requires every file byte-identical to the
// checked-in BENCH_<suite>.json: the suites are deterministic, and the
// checked-in files are what this tree measures — which is what lets every
// test that judges a gated number read the files instead of re-running
// the suite. `make bench-identical` is this test. A PR that means to move
// virtual time runs `go run ./cmd/bench` and commits the result.
func TestBenchReproducibleByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all four suites (~10 s)")
	}
	paths, err := BenchAll("all", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) != len(paths) {
		t.Errorf("%d suites generated, %d checked in (%v, %v)", len(paths), len(files), files, err)
	}
	for _, p := range paths {
		checkedIn := filepath.Join("../..", filepath.Base(p))
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(checkedIn)
		if err != nil {
			t.Error(err)
			continue
		}
		if bytes.Equal(got, want) {
			continue
		}
		old, errOld := ReadBench(checkedIn)
		cur, errCur := ReadBench(p)
		if errOld != nil || errCur != nil {
			t.Errorf("%s differs from what this tree generates and cannot be compared by row: %v, %v", checkedIn, errOld, errCur)
			continue
		}
		t.Errorf("the checked-in %s is not what this tree generates:\n%s", filepath.Base(p), movedRows(old, cur))
	}
}

// TestStaleBenchNamesEveryMovedRow: when the checked-in trajectory is not
// current, the failure text of the test above names each row that moved,
// disappeared or appeared, as `name (n=N) transport old → new`.
func TestStaleBenchNamesEveryMovedRow(t *testing.T) {
	checkedIn := []BenchEntry{
		{Name: "latency/GM", Value: 8_944, Unit: "ns"},
		{Name: "Page", Transport: "fastgm", Nodes: 4, Value: 89_012, Unit: "ns/op"},
		{Name: "App/sor", Transport: "rdmagm", Nodes: 8, Value: 76_014_175, Unit: "ns"},
	}
	cases := []struct {
		name        string
		regenerated []BenchEntry
		want        []string // whitespace-normalised substrings of the failure text
	}{
		{"nothing moved", checkedIn,
			[]string{"gate t: PASS (3 rows)"}},
		{"one value worse", []BenchEntry{checkedIn[0], checkedIn[1], {Name: "App/sor", Transport: "rdmagm", Nodes: 8, Value: 76_014_176, Unit: "ns"}},
			[]string{"gate t: FAIL (3 rows, 1 FAIL)", "FAIL App/sor (n=8) rdmagm 76014175 → 76014176 ns"}},
		{"one value better", []BenchEntry{checkedIn[0], {Name: "Page", Transport: "fastgm", Nodes: 4, Value: 55_632, Unit: "ns/op"}, checkedIn[2]},
			[]string{"gate t: PASS (3 rows, 1 improved)", "improved Page (n=4) fastgm 89012 → 55632 ns/op"}},
		{"changed, removed and added", []BenchEntry{
			{Name: "latency/GM", Value: 9_000, Unit: "ns"},
			checkedIn[2],
			{Name: "App/sor", Transport: "rdmagm", Nodes: 16, Value: 85_785_481, Unit: "ns"},
		}, []string{
			"gate t: FAIL (2 rows, 2 FAIL, 1 new)",
			"FAIL latency/GM 8944 → 9000 ns",
			"FAIL Page (n=4) fastgm 89012 → - ns/op (row removed)",
			"new App/sor (n=16) rdmagm - → 85785481 ns",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := movedRows(&BenchSuite{Schema: BenchSchema, Suite: "t", Entries: checkedIn},
				&BenchSuite{Schema: BenchSchema, Suite: "t", Entries: tc.regenerated})
			flat := strings.Join(strings.Fields(text), " ")
			for _, w := range tc.want {
				if !strings.Contains(flat, w) {
					t.Errorf("failure text does not contain %q:\n%s", w, text)
				}
			}
			if n := strings.Count(text, "\n"); n != len(tc.want) {
				t.Errorf("%d lines, want the summary and one per moved row (%d):\n%s", n, len(tc.want), text)
			}
		})
	}
}
