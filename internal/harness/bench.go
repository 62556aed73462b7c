package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/tmk"
	"repro/internal/ubench"
)

// Machine-readable bench trajectory: the E0/E1/E2 headline numbers
// serialized as BENCH_<suite>.json so successive commits can be compared
// mechanically. Runs are deterministic simulations, so regenerating a
// suite on the same tree reproduces the file byte-identically — any diff
// is a real performance change, not noise.

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
// is held to fastgm's time or to a pinned ceiling above it;
// TestBenchE3RDMAWinsHeadlineRows enforces both:
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
		pg, err := ubench.Page(withBenchTracer(tmk.DefaultConfig(pageNodes, kind)), 32)
		if err != nil {
			return nil, fmt.Errorf("e3 page (%s): %w", kind, err)
		}
		dm, err := ubench.DiffMultiWriter(withBenchTracer(tmk.DefaultConfig(dmwNodes, kind)), 16, dmwWriter)
		if err != nil {
			return nil, fmt.Errorf("e3 diff-multiwriter (%s): %w", kind, err)
		}
		br, err := ubench.Barrier(withBenchTracer(tmk.DefaultConfig(pageNodes, kind)), 5)
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

// BenchChurn captures the elastic-membership cost: the default churn
// schedule (two joins, a crash absorbed by partial recovery, a ring
// leave) applied to one application on every substrate, next to the
// zero-churn run — the same configuration without the membership layer,
// so the checked-in zero-churn rows are the numbers the e-suites see and
// the gate holds both sides.
func BenchChurn() (*BenchSuite, error) {
	spec := DefaultChurnSpec(4)
	app := chaosApps()[0]
	s := &BenchSuite{Schema: BenchSchema, Suite: "churn"}
	for _, kind := range AllTransports {
		churned, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
		if err != nil {
			return nil, fmt.Errorf("churn bench (%s): %w", kind, err)
		}
		plain, err := RunApp(app, spec.Nodes, kind, func(cfg *tmk.Config) { cfg.Seed = spec.Seed })
		if err != nil {
			return nil, err
		}
		s.Entries = append(s.Entries,
			BenchEntry{Name: "Churn/" + app.Name(), Transport: string(kind), Nodes: spec.Nodes, Value: int64(churned.ExecTime), Unit: "ns"},
			BenchEntry{Name: "ZeroChurn/" + app.Name(), Transport: string(kind), Nodes: spec.Nodes, Value: int64(plain.ExecTime), Unit: "ns"},
		)
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

// PrintBenchDiff renders per-row deltas (negative = faster/smaller).
func PrintBenchDiff(w io.Writer, suite string, deltas []BenchDelta) {
	fprintf(w, "BENCH_%s.json: checked-in vs regenerated\n", suite)
	fprintf(w, "  %-42s %-7s %14s %14s %9s\n", "benchmark", "trans", "old", "new", "delta")
	for _, d := range deltas {
		name := d.Name
		if d.Nodes > 0 {
			name = fmt.Sprintf("%s (n=%d)", d.Name, d.Nodes)
		}
		switch {
		case !d.HasOld:
			fprintf(w, "  %-42s %-7s %14s %14d %9s\n", name, d.Transport, "-", d.New, "new")
		case !d.HasNew:
			fprintf(w, "  %-42s %-7s %14d %14s %9s\n", name, d.Transport, d.Old, "-", "removed")
		default:
			delta := "0.0%"
			if d.Old != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*float64(d.New-d.Old)/float64(d.Old))
			} else if d.New != 0 {
				delta = "+inf"
			}
			fprintf(w, "  %-42s %-7s %14d %14d %9s\n", name, d.Transport, d.Old, d.New, delta)
		}
	}
}

// Bench regression gate (`make bench-gate`): regenerate every suite
// in-memory and hold each row to the checked-in BENCH_<suite>.json
// within a per-row tolerance, turning the perf trajectory from an
// informational diff into an enforced contract. The simulations are
// deterministic, so on an unchanged tree every delta is exactly zero;
// the tolerance exists for intentional cross-commit movement — anything
// outside it means "update the checked-in file deliberately or explain
// the regression", never noise.

// Gate tolerance defaults: a row is within tolerance when |new−old| ≤
// max(GateAbsNs, GateRelTol·|old|). The absolute floor keeps
// sub-microsecond rows (per-op latencies) from failing on rounding-scale
// movement; the relative bound scales with the long application runs.
// Beyond it the direction decides: times ("ns", "ns/op") are better
// lower, rates ("B/s") better higher, and only a worsening fails.
const (
	GateRelTol = 0.02 // 2% relative tolerance
	GateAbsNs  = 500  // 500ns absolute floor
)

// GateViolation is one row that worsened beyond its tolerance (or is
// missing outright).
type GateViolation struct {
	Suite string
	Delta BenchDelta
	Why   string
}

// GateReport is one suite's gate outcome.
type GateReport struct {
	Suite      string
	Rows       int          // rows compared against the checked-in file
	Added      int          // rows present only in the regenerated suite (informational)
	Improved   []BenchDelta // rows better by more than the tolerance (informational)
	Violations []GateViolation
}

// GateBench regenerates the selected suites ("all" or one of e0–e3) and
// gates each against the checked-in file in dir. relTol/absNs ≤ 0 select
// the defaults.
func GateBench(suite, dir string, relTol float64, absNs int64) ([]GateReport, error) {
	ran := false
	var reports []GateReport
	for _, g := range BenchGens() {
		if suite != "all" && suite != g.Name {
			continue
		}
		ran = true
		cur, err := g.Fn()
		if err != nil {
			return nil, err
		}
		old, err := ReadBench(filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", g.Name)))
		if err != nil {
			return nil, err
		}
		reports = append(reports, gateSuite(old, cur, relTol, absNs))
	}
	if !ran {
		return nil, fmt.Errorf("unknown suite %q", suite)
	}
	return reports, nil
}

// gateSuite holds cur to old row by row. A removed row is a violation (a
// benchmark silently disappearing is a coverage loss); an added row and a
// row that improved beyond the tolerance are informational.
func gateSuite(old, cur *BenchSuite, relTol float64, absNs int64) GateReport {
	if relTol <= 0 {
		relTol = GateRelTol
	}
	if absNs <= 0 {
		absNs = GateAbsNs
	}
	rep := GateReport{Suite: cur.Suite}
	for _, d := range DiffBench(old, cur) {
		switch {
		case !d.HasNew:
			rep.Violations = append(rep.Violations, GateViolation{
				Suite: cur.Suite, Delta: d, Why: "row removed from regenerated suite"})
		case !d.HasOld:
			rep.Added++
		default:
			rep.Rows++
			tol := max(absNs, int64(relTol*math.Abs(float64(d.Old))))
			worse := d.New - d.Old
			if d.Unit == "B/s" {
				worse = -worse
			}
			switch {
			case worse > tol:
				rep.Violations = append(rep.Violations, GateViolation{
					Suite: cur.Suite, Delta: d,
					Why: fmt.Sprintf("%d → %d: worse by %d%s, tolerance %d%s",
						d.Old, d.New, worse, d.Unit, tol, d.Unit)})
			case -worse > tol:
				rep.Improved = append(rep.Improved, d)
			}
		}
	}
	return rep
}

// PrintGate renders the gate outcome and reports whether every suite
// passed.
func PrintGate(w io.Writer, reports []GateReport) bool {
	ok := true
	rowName := func(d BenchDelta) string {
		if d.Nodes > 0 {
			return fmt.Sprintf("%s (n=%d)", d.Name, d.Nodes)
		}
		return d.Name
	}
	for _, rep := range reports {
		status := "PASS"
		if len(rep.Violations) > 0 {
			status = "FAIL"
			ok = false
		}
		within := rep.Rows - len(rep.Improved)
		for _, v := range rep.Violations {
			if v.Delta.HasNew { // a removed row was never among Rows
				within--
			}
		}
		fprintf(w, "gate %s: %s (%d rows within tolerance", rep.Suite, status, within)
		if len(rep.Improved) > 0 {
			fprintf(w, ", %d improved", len(rep.Improved))
		}
		if rep.Added > 0 {
			fprintf(w, ", %d new rows", rep.Added)
		}
		fprintf(w, ")\n")
		for _, d := range rep.Improved {
			fprintf(w, "  improved %-38s %-7s %d → %d %s\n", rowName(d), d.Transport, d.Old, d.New, d.Unit)
		}
		for _, v := range rep.Violations {
			fprintf(w, "  FAIL %-42s %-7s %s\n", rowName(v.Delta), v.Delta.Transport, v.Why)
		}
	}
	return ok
}

// BenchGen names one suite generator.
type BenchGen struct {
	Name string
	Fn   func() (*BenchSuite, error)
}

// BenchGens lists the suite generators in suite order; every driver
// (write, diff, gate) iterates this one list so a new suite cannot be
// wired into some modes and silently missed by others.
func BenchGens() []BenchGen {
	return []BenchGen{
		{"e0", BenchE0},
		{"e1", BenchE1},
		{"e2", func() (*BenchSuite, error) { return BenchE2([]int{2, 4, 8}) }},
		{"e3", BenchE3},
		{"churn", BenchChurn},
		{"flow", BenchFlow},
	}
}

// BenchAll runs every suite and writes its file into dir, returning the
// paths written.
func BenchAll(dir string) ([]string, error) {
	var paths []string
	for _, g := range BenchGens() {
		s, err := g.Fn()
		if err != nil {
			return nil, err
		}
		p, err := WriteBench(dir, s)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
