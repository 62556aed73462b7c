package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestGateSuiteDirection pins the gate's one rule: beyond the tolerance
// (max(500 ns, 2%) by default) only a worsening fails — a time that fell
// or a rate that rose is reported as improved, like an added row, and a
// removed row is always a violation.
func TestGateSuiteDirection(t *testing.T) {
	cases := []struct {
		name     string
		unit     string
		old, cur int64 // cur < 0: the row is absent from the regenerated suite
		added    bool  // the row is absent from the checked-in suite
		want     string
	}{
		{"time much faster", "ns", 270_090_895, 33_366_890, false, "improved"},
		{"time much slower", "ns", 33_366_890, 270_090_895, false, "violation"},
		{"per-op faster past 2%", "ns/op", 100_000, 97_000, false, "improved"},
		{"per-op slower past 2%", "ns/op", 100_000, 103_000, false, "violation"},
		{"per-op within 2%", "ns/op", 100_000, 101_900, false, "within"},
		{"per-op faster within 2%", "ns/op", 100_000, 98_100, false, "within"},
		{"small row inside the 500 ns floor", "ns/op", 8_944, 9_400, false, "within"},
		{"small row past the 500 ns floor", "ns/op", 8_944, 9_500, false, "violation"},
		{"small row faster past the floor", "ns", 8_944, 8_000, false, "improved"},
		{"rate higher", "B/s", 135_838_804, 233_937_041, false, "improved"},
		{"rate lower", "B/s", 233_937_041, 135_838_804, false, "violation"},
		{"rate within 2%", "B/s", 233_937_041, 230_000_000, false, "within"},
		{"unchanged", "ns", 21_670_000, 21_670_000, false, "within"},
		{"added time row", "ns", 0, 180_154_000, true, "added"},
		{"added rate row", "B/s", 0, 1, true, "added"},
		{"removed time row", "ns", 55_632, -1, false, "violation"},
		{"removed rate row", "B/s", 15_650_829, -1, false, "violation"},
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
			rep := gateSuite(old, cur, 0, 0)
			got := "within"
			switch {
			case len(rep.Violations) == 1:
				got = "violation"
			case len(rep.Improved) == 1:
				got = "improved"
			case rep.Added == 1:
				got = "added"
			}
			if got != tc.want || len(rep.Violations)+len(rep.Improved)+rep.Added > 1 {
				t.Errorf("%d → %d %s gated as %s (%+v), want %s", tc.old, tc.cur, tc.unit, got, rep, tc.want)
			}
			var out bytes.Buffer
			if ok := PrintGate(&out, []GateReport{rep}); ok != (tc.want != "violation") {
				t.Errorf("PrintGate passed=%v for a %s row:\n%s", ok, tc.want, out.String())
			}
			if tc.want == "improved" && !strings.Contains(out.String(), "improved row (n=4)") {
				t.Errorf("an improved row is not printed as such:\n%s", out.String())
			}
		})
	}
}
