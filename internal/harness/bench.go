package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

// Machine-readable bench trajectory: the headline numbers of four suites
// serialized as BENCH_<suite>.json so successive commits can be compared
// mechanically. Runs are deterministic simulations, so regenerating a
// suite on the same tree reproduces the file byte-identically — any diff
// is a real performance change, not noise — and the checked-in files are
// the single source of measured truth: TestBenchReproducibleByteIdentical
// regenerates them once per test run and requires them current, and every
// other test that judges a row reads them with ReadBench.

// BenchSchema identifies the JSON format of a bench suite file.
const BenchSchema = "tmk-bench/1"

// BenchSuite is one suite's results.
type BenchSuite struct {
	Schema  string       `json:"schema"`
	Suite   string       `json:"suite"`
	Entries []BenchEntry `json:"entries"`
}

// BenchEntry is one measured number.
type BenchEntry struct {
	Name      string `json:"name"`
	Transport string `json:"transport,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	Value     int64  `json:"value"`
	Unit      string `json:"unit"` // "ns", "ns/op", or "B/s"
}

// BenchE0 captures the Section 3.1 latency/bandwidth numbers.
func BenchE0() (*BenchSuite, error) {
	rows, err := Netperf()
	if err != nil {
		return nil, err
	}
	s := &BenchSuite{Schema: BenchSchema, Suite: "e0"}
	for _, r := range rows {
		s.Entries = append(s.Entries,
			BenchEntry{Name: "latency/" + r.Layer, Value: int64(r.Latency), Unit: "ns"},
			BenchEntry{Name: "bandwidth/" + r.Layer, Value: int64(r.Bandwidth), Unit: "B/s"},
		)
	}
	return s, nil
}

// BenchE1 captures the Figure 3 microbenchmark per-operation times
// (barriers on 2/4/8 nodes to keep the suite quick).
func BenchE1() (*BenchSuite, error) {
	rows, err := Figure3([]int{2, 4, 8})
	if err != nil {
		return nil, err
	}
	s := &BenchSuite{Schema: BenchSchema, Suite: "e1"}
	for _, r := range rows {
		s.Entries = append(s.Entries,
			BenchEntry{Name: r.Bench, Transport: string(tmk.TransportUDPGM), Value: int64(r.UDP), Unit: "ns/op"},
			BenchEntry{Name: r.Bench, Transport: string(tmk.TransportFastGM), Value: int64(r.Fast), Unit: "ns/op"},
		)
	}
	return s, nil
}

// BenchE2 captures the Figure 4 application execution times over the
// given node counts.
func BenchE2(nodes []int) (*BenchSuite, error) {
	rows, err := Figure4(nodes)
	if err != nil {
		return nil, err
	}
	s := &BenchSuite{Schema: BenchSchema, Suite: "e2"}
	for _, r := range rows {
		s.Entries = append(s.Entries,
			BenchEntry{Name: r.App, Nodes: r.Nodes, Transport: string(tmk.TransportUDPGM), Value: int64(r.UDP), Unit: "ns"},
			BenchEntry{Name: r.App, Nodes: r.Nodes, Transport: string(tmk.TransportFastGM), Value: int64(r.Fast), Unit: "ns"},
		)
	}
	return s, nil
}

// BenchE3 captures the one-sided substrate's headline comparison:
// homeless LRC on fastgm versus home-based LRC on rdmagm, plus the flat
// barrier for context (the two-sided halves should track each other
// closely), and the four applications on rdmagm (App/<name>). Two
// microbenchmark rows are expected to favor rdmagm, and every application
// cell with a fastgm comparator in BENCH_e2 (4 and 8 nodes) is held to
// fastgm's time or to a pinned ceiling above it;
// TestBenchE3RDMAWinsHeadlineRows enforces both, from the checked-in files:
//
//   - Page: a read fault is one firmware-serviced Get from the home
//     (free when the faulting rank IS the home) instead of an interrupt,
//     handler dispatch, and two host copies at the owner.
//   - DiffMultiWriter/15w: the all-peers false-sharing worst case. The
//     homeless gather is overlapped (max-RTT, not sum), but the reader
//     still pays per-writer send/receive occupancy, so its cost grows
//     with the writer count; the home path is one whole-page Get no
//     matter how many writers flushed — their diffs were RDMA-written to
//     the home at the preceding release, off the timed fault path. At
//     3 writers homeless still wins (tiny diffs beat a 4 KB page
//     transfer); the suite pins the configuration the home-based
//     protocol exists for.
func BenchE3() (*BenchSuite, error) {
	const (
		pageNodes = 4
		dmwNodes  = 16
		dmwWriter = 15
	)
	s := &BenchSuite{Schema: BenchSchema, Suite: "e3"}
	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportRDMAGM} {
		pg, err := ubench.Page(tmk.DefaultConfig(pageNodes, kind), 32)
		if err != nil {
			return nil, fmt.Errorf("e3 page (%s): %w", kind, err)
		}
		dm, err := ubench.DiffMultiWriter(tmk.DefaultConfig(dmwNodes, kind), 16, dmwWriter)
		if err != nil {
			return nil, fmt.Errorf("e3 diff-multiwriter (%s): %w", kind, err)
		}
		br, err := ubench.Barrier(tmk.DefaultConfig(pageNodes, kind), 5)
		if err != nil {
			return nil, fmt.Errorf("e3 barrier (%s): %w", kind, err)
		}
		s.Entries = append(s.Entries,
			BenchEntry{Name: "Page", Transport: string(kind), Nodes: pageNodes, Value: int64(pg.Per), Unit: "ns/op"},
			BenchEntry{Name: "DiffMultiWriter/15w", Transport: string(kind), Nodes: dmwNodes, Value: int64(dm.Per), Unit: "ns/op"},
			BenchEntry{Name: "Barrier", Transport: string(kind), Nodes: pageNodes, Value: int64(br.Per), Unit: "ns/op"},
		)
	}
	// Whole applications on the one-sided path, at Figure 4's default
	// sizes; BENCH_e2's fastgm rows are their comparators at 4 and 8 nodes,
	// and the 8- and 16-node rows pin the table EXPERIMENTS.md E3 quotes.
	for _, n := range []int{pageNodes, 8, 16} {
		for _, name := range AppNames {
			res, err := RunApp(apps.ByName(name), n, tmk.TransportRDMAGM, nil)
			if err != nil {
				return nil, fmt.Errorf("e3 app %s/%d: %w", name, n, err)
			}
			s.Entries = append(s.Entries, BenchEntry{Name: "App/" + name,
				Transport: string(tmk.TransportRDMAGM), Nodes: n, Value: int64(res.ExecTime), Unit: "ns"})
		}
	}
	return s, nil
}

// WriteBench writes the suite as dir/BENCH_<suite>.json and returns the
// path. Output is byte-deterministic.
func WriteBench(dir string, s *BenchSuite) (string, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", s.Suite))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadBench loads a previously written suite file.
func ReadBench(path string) (*BenchSuite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &BenchSuite{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, BenchSchema)
	}
	return s, nil
}

// BenchDelta is one row's old-vs-new comparison; HasOld/HasNew mark rows
// present on only one side (added or removed benchmarks).
type BenchDelta struct {
	Name      string
	Transport string
	Nodes     int
	Unit      string
	Old, New  int64
	HasOld    bool
	HasNew    bool
}

// benchKey identifies one entry across suites.
type benchKey struct {
	name      string
	transport string
	nodes     int
}

// DiffBench matches entries by (name, transport, nodes), in the new
// suite's order with removed rows appended in the old suite's order.
func DiffBench(old, cur *BenchSuite) []BenchDelta {
	oldByKey := make(map[benchKey]BenchEntry, len(old.Entries))
	for _, e := range old.Entries {
		oldByKey[benchKey{e.Name, e.Transport, e.Nodes}] = e
	}
	seen := make(map[benchKey]bool)
	var out []BenchDelta
	for _, e := range cur.Entries {
		k := benchKey{e.Name, e.Transport, e.Nodes}
		seen[k] = true
		d := BenchDelta{Name: e.Name, Transport: e.Transport, Nodes: e.Nodes,
			Unit: e.Unit, New: e.Value, HasNew: true}
		if o, ok := oldByKey[k]; ok {
			d.Old = o.Value
			d.HasOld = true
		}
		out = append(out, d)
	}
	for _, e := range old.Entries {
		k := benchKey{e.Name, e.Transport, e.Nodes}
		if !seen[k] {
			out = append(out, BenchDelta{Name: e.Name, Transport: e.Transport,
				Nodes: e.Nodes, Unit: e.Unit, Old: e.Value, HasOld: true})
		}
	}
	return out
}

// The one comparison (`cmd/bench -gate`, `make bench-gate`, and — at zero
// tolerance — TestBenchReproducibleByteIdentical's failure text): a
// regenerated suite is held to the checked-in BENCH_<suite>.json row by
// row, every row that moved is listed, and the ones that worsened beyond
// their tolerance fail. The simulations are deterministic, so on an
// unchanged tree nothing moves; the tolerance exists for intentional
// cross-commit movement — anything outside it means "update the
// checked-in file deliberately or explain the regression", never noise.

// Gate tolerances (`cmd/bench -gate`): a row is within tolerance when
// |new−old| ≤ max(absNs, relTol·|old|). The absolute floor keeps sub-microsecond rows (per-op latencies) from
// failing on rounding-scale movement; the relative bound scales with the
// long application runs. Beyond it the direction decides: times ("ns",
// "ns/op") are better lower, rates ("B/s") better higher, and only a
// worsening fails. Zero means zero: at (0, 0) any worsening fails.
const (
	GateRelTol = 0.02 // 2% relative tolerance
	GateAbsNs  = 500  // 500ns absolute floor
)

// The gate's verdicts on a row that differs from the checked-in file.
const (
	gateFail     = "FAIL"     // worse beyond the tolerance, or removed
	gateImproved = "improved" // better beyond the tolerance
	gateMoved    = "moved"    // changed within the tolerance
	gateNew      = "new"      // absent from the checked-in file
)

// GateRow is one row that moved, with the gate's verdict on it.
type GateRow struct {
	BenchDelta
	Verdict string
	Why     string // a failure's reason
}

// GateReport is one suite's gate outcome.
type GateReport struct {
	Suite string
	Rows  int       // rows present on both sides
	Moved []GateRow // every row that differs from the checked-in file
}

// count returns how many moved rows carry the verdict.
func (r GateReport) count(verdict string) int {
	n := 0
	for _, m := range r.Moved {
		if m.Verdict == verdict {
			n++
		}
	}
	return n
}

// GateBench regenerates the selected suites ("all" or one suite's name)
// and gates each against the checked-in file in dir at GateRelTol and
// GateAbsNs.
func GateBench(suite, dir string) ([]GateReport, error) {
	suites, err := generate(suite)
	if err != nil {
		return nil, err
	}
	var reports []GateReport
	for _, cur := range suites {
		old, err := ReadBench(filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", cur.Suite)))
		if err != nil {
			return nil, err
		}
		reports = append(reports, gateSuite(old, cur, GateRelTol, GateAbsNs))
	}
	return reports, nil
}

// gateSuite holds cur to old row by row. A removed row fails (a benchmark
// silently disappearing is a coverage loss); an added row, a row that
// improved beyond the tolerance and a row that moved within it are listed.
func gateSuite(old, cur *BenchSuite, relTol float64, absNs int64) GateReport {
	rep := GateReport{Suite: cur.Suite}
	for _, d := range DiffBench(old, cur) {
		row := GateRow{BenchDelta: d}
		switch {
		case !d.HasNew:
			row.Verdict, row.Why = gateFail, "row removed"
		case !d.HasOld:
			row.Verdict = gateNew
		default:
			rep.Rows++
			if d.New == d.Old {
				continue
			}
			tol := max(absNs, int64(relTol*math.Abs(float64(d.Old))))
			worse := d.New - d.Old
			if d.Unit == "B/s" {
				worse = -worse
			}
			switch {
			case worse > tol:
				row.Verdict = gateFail
				row.Why = fmt.Sprintf("worse by %d, tolerance %d", worse, tol)
			case -worse > tol:
				row.Verdict = gateImproved
			default:
				row.Verdict = gateMoved
			}
		}
		rep.Moved = append(rep.Moved, row)
	}
	return rep
}

// PrintGate renders the gate outcome — one line per moved row, as
// `verdict name (n=N) transport old → new unit` — and reports whether
// every suite passed.
func PrintGate(w io.Writer, reports []GateReport) bool {
	ok := true
	value := func(v int64, has bool) string {
		if !has {
			return "-"
		}
		return strconv.FormatInt(v, 10)
	}
	for _, rep := range reports {
		status := "PASS"
		if rep.count(gateFail) > 0 {
			status = "FAIL"
			ok = false
		}
		fprintf(w, "gate %s: %s (%d rows", rep.Suite, status, rep.Rows)
		for _, v := range []string{gateFail, gateImproved, gateMoved, gateNew} {
			if n := rep.count(v); n > 0 {
				fprintf(w, ", %d %s", n, v)
			}
		}
		fprintf(w, ")\n")
		for _, m := range rep.Moved {
			name := m.Name
			if m.Nodes > 0 {
				name = fmt.Sprintf("%s (n=%d)", m.Name, m.Nodes)
			}
			fprintf(w, "  %-8s %-38s %-7s %s → %s %s", m.Verdict, name, m.Transport,
				value(m.Old, m.HasOld), value(m.New, m.HasNew), m.Unit)
			if m.Why != "" {
				fprintf(w, " (%s)", m.Why)
			}
			fprintf(w, "\n")
		}
	}
	return ok
}

// generate runs the selected suites ("all", or one suite's name) and
// returns them in suite order: the one generator behind the writer, the
// gate and the byte-identity test, so a new suite cannot be wired into one
// and missed by another. Suites run concurrently, as many at a time as
// there are CPUs: every run owns its simulator and nothing below keeps
// package-level state, so no result depends on the interleaving.
func generate(suite string) ([]*BenchSuite, error) {
	type gen struct {
		name string
		fn   func() (*BenchSuite, error)
	}
	gens := []gen{
		{"e0", BenchE0},
		{"e1", BenchE1},
		{"e2", func() (*BenchSuite, error) { return BenchE2([]int{2, 4, 8}) }},
		{"e3", BenchE3},
	}
	if suite != "all" {
		gens = slices.DeleteFunc(gens, func(g gen) bool { return g.name != suite })
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("unknown suite %q", suite)
	}
	suites, errs := make([]*BenchSuite, len(gens)), make([]error, len(gens))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0)) // semaphore
	var wg sync.WaitGroup
	for i, g := range gens {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			suites[i], errs[i] = g.fn()
			<-slots
		}()
	}
	wg.Wait()
	return suites, errors.Join(errs...)
}

// BenchAll runs the selected suites ("all" or one suite's name) and
// writes each one's file into dir, returning the paths written.
func BenchAll(suite, dir string) ([]string, error) {
	suites, err := generate(suite)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, s := range suites {
		p, err := WriteBench(dir, s)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
