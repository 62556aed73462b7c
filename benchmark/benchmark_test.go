package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/tmk"
)

// TestMain lets the test binary stand in for a benchmark child that
// dies, so supervise can be tested against a real process.
func TestMain(m *testing.M) {
	switch os.Getenv("BENCHMARK_TEST_CHILD") {
	case "":
		os.Exit(m.Run())
	case "panic":
		enc := json.NewEncoder(os.Stdout)
		_ = enc.Encode(event{Plan: 10})
		_ = enc.Encode(event{Run: "setup"})
		_ = enc.Encode(event{Run: "timed"})
		_ = enc.Encode(event{Run: "timed", Err: "ExecTime differs"})
		go panic("protocol invariant broken") // as on a sim.Spawn goroutine: not recoverable
		time.Sleep(time.Minute)
	case "killed":
		_ = json.NewEncoder(os.Stdout).Encode(event{Plan: 3})
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(time.Minute)
	}
}

func deadChild(t *testing.T, how string) outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "BENCHMARK_TEST_CHILD="+how)
	return supervise(cmd, "w")
}

func TestSuperviseChargesADeadChildsUnrunReps(t *testing.T) {
	o := deadChild(t, "panic")
	if o.Attempted != 10 || o.Failed != 8 {
		t.Errorf("panicked child: attempted %d failed %d, want 10 and 8 (2 runs finished well)", o.Attempted, o.Failed)
	}
	last := o.Errors[len(o.Errors)-1]
	if !strings.Contains(last, "panic: protocol invariant broken") {
		t.Errorf("panic's first line not reported: %q", o.Errors)
	}
	if !strings.Contains(o.Errors[0], "ExecTime differs") {
		t.Errorf("failed run's error lost: %q", o.Errors)
	}

	o = deadChild(t, "killed")
	if o.Attempted != 3 || o.Failed != 3 {
		t.Errorf("killed child: attempted %d failed %d, want 3 and 3", o.Attempted, o.Failed)
	}
	set := newResultSet(1)
	set.add(o)
	if r := set.contract("w"); r.Correct || r.Attempted < 1 {
		t.Errorf("a dead child must not read as correct: %+v", r)
	}
}

var probeRun = sync.OnceValue(func() outcome { return runProbe(func(event) {}) })

// probeOnce runs the layer probe once for all tests that read it.
func probeOnce(t *testing.T) outcome {
	t.Helper()
	o := probeRun()
	if o.Failed != 0 {
		t.Fatalf("probe failed: %v", o.Errors)
	}
	return o
}

// benchRow finds one checked-in gate row.
func benchRow(t *testing.T, s *harness.BenchSuite, name, transport string) float64 {
	t.Helper()
	for _, e := range s.Entries {
		if e.Name == name && e.Transport == transport {
			return float64(e.Value)
		}
	}
	t.Fatalf("BENCH_%s.json has no row %q %q", s.Suite, name, transport)
	return 0
}

// The probe must drive the layers exactly as the gated suites do: where
// a checked-in BENCH_e0 / BENCH_e1 row has a probe metric's
// configuration, the two are equal to the nanosecond.
func TestProbeEqualsGatedSuites(t *testing.T) {
	e0, err := harness.ReadBench("../BENCH_e0.json")
	if err != nil {
		t.Fatal(err)
	}
	e1, err := harness.ReadBench("../BENCH_e1.json")
	if err != nil {
		t.Fatal(err)
	}
	o := probeOnce(t)
	got := map[string]float64{}
	for _, r := range o.PerLayer {
		got[r.Name] = r.Value
	}
	for layer, prefix := range netperfNames {
		if want := benchRow(t, e0, "latency/"+layer, ""); got[prefix+".latency_virt_ns"] != want {
			t.Errorf("%s.latency_virt_ns = %v, BENCH_e0 has %v", prefix, got[prefix+".latency_virt_ns"], want)
		}
		// The suite stores bytes/s truncated to an integer.
		want := benchRow(t, e0, "bandwidth/"+layer, "")
		if bps := got[prefix+".bandwidth_virt_mbps"] * 1e6; math.Floor(bps+1e-6) != want {
			t.Errorf("%s.bandwidth_virt_mbps = %v B/s, BENCH_e0 has %v", prefix, bps, want)
		}
	}
	for _, c := range []struct{ metric, row, transport string }{
		{"fastgm.page_virt_ns", "Page", "fastgm"},
		{"udpgm.page_virt_ns", "Page", "udpgm"},
		{"fastgm.barrier8_virt_ns", "Barrier (8)", "fastgm"},
		{"udpgm.barrier8_virt_ns", "Barrier (8)", "udpgm"},
		{"tmk.lock_direct_virt_ns", "Lock direct", "fastgm"},
		{"tmk.lock_indirect_virt_ns", "Lock indirect", "fastgm"},
		{"tmk.diff_small_virt_ns", "Diff small", "fastgm"},
		{"tmk.diff_large_virt_ns", "Diff large", "fastgm"},
		{"tmk.diff_4writers_virt_ns", "DiffMultiWriter (4 writers)", "fastgm"},
	} {
		v, ok := got[c.metric]
		if want := benchRow(t, e1, c.row, c.transport); !ok || v != want {
			t.Errorf("%s = %v, BENCH_e1 %q/%s has %v", c.metric, v, c.row, c.transport, want)
		}
	}
}

// small is each workload's application scaled down so the whole table
// runs in a couple of seconds; nodes, substrate and protocol are kept.
var small = map[string]func() apps.App{
	"jacobi_fastgm_16": func() apps.App { return &apps.Jacobi{N: 64, Iters: 2, CostPerPoint: jacobiPoint} },
	"fft3d_udpgm_8":    func() apps.App { return &apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: fftButterfly} },
	"fft3d_fastgm_8":   func() apps.App { return &apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: fftButterfly} },
	"tsp_fastgm_8":     func() apps.App { return &apps.TSP{Cities: 8, PrefixDepth: 3, CostPerNode: tspNode} },
	"sor_rdmagm_4":     func() apps.App { return &apps.SOR{M: 32, N: 16, Iters: 2, Omega: 1.25, CostPerPoint: sorPoint} },
	"sor_fastgm_4":     func() apps.App { return &apps.SOR{M: 32, N: 16, Iters: 2, Omega: 1.25, CostPerPoint: sorPoint} },
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric BENCHMARK.json lists is printed exactly once per workload
// (probe metrics: once), with the listed unit, and nothing else is.
func TestReportPrintsEveryListedMetricOnce(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	set := newResultSet(1)
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		w.app, w.reps = small[w.name], 2
		o := runWorkload(w, options{seed: 1, trace: -1}, time.Now(), func(event) {})
		if o.Failed != 0 || len(o.Errors) != 0 {
			t.Fatalf("%s (scaled down): %d of %d runs failed: %v", w.name, o.Failed, o.Attempted, o.Errors)
		}
		if want := setupReps + 2 + 1 + 1; o.Attempted != want {
			t.Errorf("%s: attempted %d runs, want %d", w.name, o.Attempted, want)
		}
		set.add(o)
	}
	set.add(probeOnce(t))

	var buf bytes.Buffer
	set.print(&buf)
	sections := strings.Split(buf.String(), "== ")[1:]
	if len(sections) != len(workloads)+1 {
		t.Fatalf("report has %d sections, want one per workload and the probe", len(sections))
	}
	type seen struct{ n, probe int }
	printed := map[string]*seen{} // metric → times printed in workload sections, and in the probe's
	units := map[string]string{}
	for i, sec := range sections {
		inSection := map[string]int{}
		for _, line := range strings.Split(sec, "\n")[1:] {
			f := strings.Fields(line)
			if len(f) < 3 || !strings.HasPrefix(line, "    ") {
				continue
			}
			inSection[f[0]]++
			units[f[0]] = f[2]
		}
		for name, n := range inSection {
			if n != 1 {
				t.Errorf("section %d prints %s %d times", i, name, n)
			}
			if printed[name] == nil {
				printed[name] = &seen{}
			}
			if i < len(workloads) {
				printed[name].n++
			} else {
				printed[name].probe++
			}
		}
	}
	listed := map[string]bool{"fail_share": true} // reported through failed ÷ attempted, not as a listed metric
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if listed[m.Name] {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		listed[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		s := printed[m.Name]
		if s == nil || !(s.n == len(workloads) && s.probe == 0 || s.n == 0 && s.probe == 1) {
			t.Errorf("%s: printed %+v, want once per workload or once by the probe", m.Name, s)
		}
		if units[m.Name] != m.Unit {
			t.Errorf("%s: printed with unit %q, BENCHMARK.json says %q", m.Name, units[m.Name], m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for name := range printed {
		if !listed[name] {
			t.Errorf("%s is printed but BENCHMARK.json does not list it", name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	// The one-workload result is the contract's object: every listed
	// metric, probe included, and nothing unlisted.
	b, err := json.Marshal(set.contract(workloads[0].name))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(listed)-1 {
		t.Errorf("contract line: correct=%v attempted=%d failed=%d with %d metrics, want %d",
			line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(listed)-1)
	}
}

func TestBucketing(t *testing.T) {
	// Every package under internal/ has a decision in layerOf.
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(path, "../internal/"))
		layer, ok := layerOf[pkg]
		if !ok {
			t.Errorf("repro/internal/%s has no entry in layerOf", pkg)
		}
		known := layer == ""
		for _, b := range buckets {
			known = known || b == layer
		}
		if !known {
			t.Errorf("repro/internal/%s maps to unknown bucket %q", pkg, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"container/heap.down", "container/heap.Pop", "repro/internal/sim.(*eventQueue).pop", "repro/internal/sim.(*Simulator).RunUntil", "main.main"}},
		{"substrate", []string{"repro/internal/substrate/fastgm.(*Transport).Call", "repro/internal/tmk.(*Proc).readFault"}},
		{"tmk", []string{"internal/runtime/maps.h2", "runtime.mapaccess2_fast32", "repro/internal/tmk.(*Proc).metaGauge"}},
		{"tmk", []string{"repro/internal/statsutil.AddInto", "repro/internal/tmk.(*Stats).Add"}},
		{"tmk", []string{"aeshashbody", "repro/internal/tmk.(*pageMeta).addNotice"}},
		{"runtime_mem", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "repro/internal/tmk.MakeTwin"}},
		{"runtime_mem", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "repro/internal/gm.(*Port).send"}},
		{"runtime_mem", []string{"runtime.futex", "runtime.futexwakeup", "runtime.gcBgMarkWorker"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready.func1", "runtime.systemstack", "runtime.chansend", "repro/internal/sim.(*Simulator).dispatch"}},
		{"runtime_sched", []string{"runtime.stealWork", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"apps", []string{"repro/internal/apps.(*TSP).solve", "repro/internal/apps.(*TSP).Run", "repro/internal/tmk.(*Cluster).spawnGeneration.func1"}},
		{"other", []string{"main.quartiles", "main.main"}},
		{"other", nil},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if got := pkgOf("repro/internal/trace.sortedKeys[go.shape.*uint8]"); got != "repro/internal/trace" {
		t.Errorf("pkgOf on a generic function = %q", got)
	}

	// A real profile of the headline workload: the decoder reads it and
	// nearly every sample finds a layer.
	w, _ := workloadByName("jacobi_fastgm_16")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tmk.NewCluster(w.config(1)).Run(w.app().Run); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Fatalf("only %d samples decoded from a one-second profile", len(samples))
	}
	pct := bucketShares(samples)
	var sum float64
	for _, b := range buckets {
		sum += pct[b]
	}
	if math.Abs(sum-100) > 1e-6 || len(pct) > len(buckets) {
		t.Errorf("bucket shares %v sum to %v over the known buckets", pct, sum)
	}
	if pct["other"] >= 5 || pct["tmk"] < 5 || pct["runtime_mem"] < 5 {
		t.Errorf("jacobi_fastgm_16 shares %v: want other < 5%% and tmk, runtime_mem visible", pct)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestCompareMarksRowsBeyondTheirBound(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale map[string]float64, failed int) *resultSet {
		s := newResultSet(1)
		for _, wl := range spec.Workloads {
			r := result{Attempted: 10, Failed: failed, Metrics: map[string]metric{"sim.events": {Value: 7, Unit: "count"}}}
			for _, m := range spec.EndToEnd {
				f := scale[m.Name]
				if f == 0 {
					f = 1
				}
				r.Metrics[m.Name] = metric{Value: 100 * f, Unit: m.Unit}
			}
			s.Results[wl.Name] = r
		}
		return s
	}
	base := mk(nil, 0)
	n := len(spec.Workloads)
	for _, c := range []struct {
		name     string
		b        *resultSet
		sameCode bool
		bad      int
	}{
		{"identical", mk(nil, 0), true, 0},
		{"host time within its bound", mk(map[string]float64{"host_s_per_run": 1.2}, 0), true, 0},
		{"virtual time a percent slower", mk(map[string]float64{"virt_exec_ms": 1.01}, 0), false, n},
		{"virtual time a percent faster is no regression", mk(map[string]float64{"virt_exec_ms": 0.99}, 0), false, 0},
		{"but is a difference between runs of one commit", mk(map[string]float64{"virt_exec_ms": 0.99}, 0), true, n},
		{"speed-up lower is worse", mk(map[string]float64{"virt_speedup_vs_1node": 0.9}, 0), false, n},
		{"any failure", mk(nil, 1), false, n},
	} {
		var out bytes.Buffer
		if bad := compareSets(&out, base, c.b, spec, c.sameCode); bad != c.bad {
			t.Errorf("%s: %d rows marked, want %d\n%s", c.name, bad, c.bad, out.String())
		}
	}
	var out bytes.Buffer
	compareSets(&out, base, base, spec, false)
	if rows := strings.Count(out.String(), "\n"); rows != 1+n*(len(spec.EndToEnd)+1) {
		t.Errorf("comparison prints %d lines, want a header and one row per workload × metric:\n%s", rows, out.String())
	}
	if !onHostClock("host_s_per_run") || !onHostClock("setup_s") || !onHostClock("sim.switch_allocs") || onHostClock("virt_exec_ms") || onHostClock("gm.sends") {
		t.Error("onHostClock misreads the naming convention")
	}
}

func TestQuartiles(t *testing.T) {
	if got := quartiles([]float64{4, 1, 3, 2, 5}); got != [3]float64{2, 3, 4} {
		t.Errorf("quartiles = %v", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Errorf("quartiles of one value = %v", got)
	}
	if s := fmt.Sprint(quartiles(nil)); s != "[0 0 0]" {
		t.Errorf("quartiles of nothing = %v", s)
	}
}
