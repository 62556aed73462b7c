package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// row is one reported number. Note carries what a reader needs beside it
// (the base of a ratio, the quartiles of a median); it is report-only.
type row struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// outcome is what one child process — a workload, or the layer probe —
// reports to the driver.
type outcome struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	EndToEnd  []row    `json:"end_to_end,omitempty"`
	PerLayer  []row    `json:"per_layer,omitempty"`
}

// event is one line of a child's standard output. A child that dies
// mid-run has told the driver how many runs it planned and which ones
// finished, so the rest can be charged to fail_share.
type event struct {
	Plan    int      `json:"plan,omitempty"`    // runs the child intends to attempt; may grow
	Run     string   `json:"run,omitempty"`     // phase of a run that just finished
	Err     string   `json:"err,omitempty"`     // why that run failed; empty if it did not
	HostS   float64  `json:"host_s,omitempty"`  // its host time, for whoever reads the stream
	Outcome *outcome `json:"outcome,omitempty"` // last line of a child that survived
}

// options are the command line's choices, handed on to every child.
type options struct {
	seed    int64
	seconds float64 // timed window, host seconds; 0 runs the workload's fixed rep count
	trace   int     // 0: end-to-end metrics only; 1: per-layer only; anything else: both
}

// endToEnd: report the end-to-end metrics (and repeat the set-up, for a
// steady setup_s).
func (o options) endToEnd() bool { return o.trace != 1 }

// layers: also run the profiled and traced passes and report the
// per-layer metrics.
func (o options) layers() bool { return o.trace != 0 }

const (
	setupReps = 3 // set-ups per end-to-end run; setup_s is their median
	minReps   = 5 // timed reps a -seconds window may not go below
	// traceRing holds every event of the largest traced run with room to
	// spare (sor_rdmagm_4 emits 0.97 M); an overwrite is a hard error.
	traceRing = 1 << 21
)

// runner executes one workload's runs and keeps the failure account.
type runner struct {
	w    workload
	o    options
	emit func(event)
	out  outcome
	ref  *tmk.Result // timed rep 1: every later plain run must equal it
}

// attempt counts one run, records its error, and tells the driver.
func (r *runner) attempt(phase string, run func() error) bool {
	r.out.Attempted++
	err := run()
	ev := event{Run: phase}
	if err != nil {
		r.out.Failed++
		ev.Err = err.Error()
		r.out.Errors = append(r.out.Errors, phase+": "+ev.Err)
	}
	r.emit(ev)
	return err == nil
}

// same reports whether two runs of one configuration agree bit-exactly
// in everything the simulation computes.
func same(got, want *tmk.Result) error {
	switch {
	case got.ExecTime != want.ExecTime:
		return fmt.Errorf("ExecTime %v differs from rep 1's %v", got.ExecTime, want.ExecTime)
	case got.Stats != want.Stats:
		return fmt.Errorf("Stats differ from rep 1: %v vs %v", &got.Stats, &want.Stats)
	case got.Transport != want.Transport:
		return fmt.Errorf("Transport stats differ from rep 1: %v vs %v", &got.Transport, &want.Transport)
	case got.MaxPinnedBytes != want.MaxPinnedBytes:
		return fmt.Errorf("MaxPinnedBytes %d differs from rep 1's %d", got.MaxPinnedBytes, want.MaxPinnedBytes)
	}
	return nil
}

// plain runs the workload once with the given observers (nil: none) and
// checks the result against rep 1.
func (r *runner) plain(tr *trace.Tracer, cz *trace.Causal) (*tmk.Result, error) {
	cfg := r.w.config(r.o.seed)
	cfg.Trace, cfg.Causal = tr, cz
	res, err := tmk.NewCluster(cfg).Run(r.w.app().Run)
	if err != nil {
		return nil, err
	}
	if res.DisabledPorts > 0 {
		return nil, fmt.Errorf("%d GM ports still disabled at the end of the run", res.DisabledPorts)
	}
	if r.ref == nil {
		r.ref = res
	} else if err := same(res, r.ref); err != nil {
		return nil, err
	}
	return res, nil
}

// runWorkload is the body of a workload child: set-up, timed reps, then
// (for per-layer output) the profiled and traced passes. started is when
// the process began, so the first set-up carries the cold-start cost.
func runWorkload(w workload, o options, started time.Time, emit func(event)) outcome {
	r := &runner{w: w, o: o, emit: emit, out: outcome{Name: w.name}}
	setups := 1
	if o.endToEnd() {
		setups = setupReps
	}
	planned := w.reps
	if o.seconds > 0 {
		planned = minReps // a lower bound until the window closes
	}
	plan := func(timed int) int {
		n := setups + timed
		if o.layers() {
			n += profiledReps(timed) + 1
		}
		return n
	}
	emit(event{Plan: plan(planned)})

	// 1. Set-up: the 1-node virtual baseline and one verified warm-up.
	seed := func(cfg *tmk.Config) { cfg.Seed = o.seed }
	var base sim.Time
	var warm *tmk.Result
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := started
		if i > 0 {
			t0 = time.Now()
		}
		ok := r.attempt("setup", func() error {
			app := w.app()
			seq, err := harness.RunApp(app, 1, tmk.TransportFastGM, seed)
			if err != nil {
				return fmt.Errorf("1-node baseline: %w", err)
			}
			res, err := harness.VerifiedRun(app, w.nodes, w.kind, seed)
			if err != nil {
				return err
			}
			if res.DisabledPorts > 0 {
				return fmt.Errorf("%d GM ports still disabled after the warm-up", res.DisabledPorts)
			}
			if warm == nil {
				base, warm = seq.ExecTime, res
				return nil
			}
			if seq.ExecTime != base {
				return fmt.Errorf("1-node ExecTime %v differs from the first set-up's %v", seq.ExecTime, base)
			}
			return same(res, warm)
		})
		if ok {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
	}
	if warm == nil {
		return r.abandon(plan(planned), "set-up failed; nothing was timed")
	}

	// 2. Timed reps, observers off.
	window := o.seconds
	if o.layers() && !o.endToEnd() {
		window /= 2 // the other half goes to the profiled and traced passes
	}
	var hostS, allocs, allocMB []float64
	var m0, m1 runtime.MemStats
	phase := time.Now()
	for i := 0; ; i++ {
		if window > 0 {
			if i >= minReps && time.Since(phase).Seconds() >= window {
				break
			}
		} else if i >= w.reps {
			break
		}
		r.attempt("timed", func() error {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			_, err := r.plain(nil, nil)
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err == nil {
				hostS = append(hostS, d.Seconds())
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
				allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			}
			return err
		})
	}
	timed := len(hostS)
	if timed == 0 {
		return r.abandon(plan(planned), "no timed rep succeeded")
	}
	emit(event{Plan: plan(r.out.Attempted - setups)})
	host := quartiles(hostS)

	if o.endToEnd() {
		r.out.EndToEnd = []row{
			{Name: "virt_exec_ms", Unit: "virt_ms", Value: ms(r.ref.ExecTime)},
			{Name: "virt_speedup_vs_1node", Unit: "ratio", Value: float64(base) / float64(r.ref.ExecTime),
				Note: fmt.Sprintf("base apps.seq_virt_ms = %v, 1 node on fastgm", ms(base))},
			{Name: "host_s_per_run", Unit: "s", Value: host[1],
				Note: fmt.Sprintf("median of %d reps, quartiles %.4f / %.4f", timed, host[0], host[2])},
			{Name: "host_allocs_per_run", Unit: "count", Value: quartiles(allocs)[1]},
			{Name: "host_alloc_mb_per_run", Unit: "MB", Value: quartiles(allocMB)[1]},
			{Name: "setup_s", Unit: "s", Value: quartiles(setupS)[1],
				Note: fmt.Sprintf("median of %d set-ups, the first from process start", len(setupS))},
		}
	}
	if !o.layers() {
		return r.out
	}

	// 3. Profiled reps, observers off. They run before the traced pass so
	// that peak RSS is the simulator's own and not the trace ring's.
	prof, ok := r.profiled(profiledReps(timed))
	if !ok {
		return r.abandon(r.out.Attempted+1, "profiled pass failed")
	}

	// 4. One traced rep: tracer and causal collector attached.
	var traced tracedPass
	ok = r.attempt("traced", func() error {
		tr, cz := trace.New(traceRing), trace.NewCausal()
		t0 := time.Now()
		if _, err := r.plain(tr, cz); err != nil {
			return fmt.Errorf("traced run (must equal the untraced reps): %w", err)
		}
		traced = tracedPass{hostS: time.Since(t0).Seconds(), reg: tr.Metrics(), edges: cz.Len(), path: cz.CriticalPath()}
		if n := tr.Overwrote(); n > 0 {
			return fmt.Errorf("trace ring of %d events overwrote %d: per-layer counts would be short; raise traceRing", traceRing, n)
		}
		return traced.checkTiling(r.ref.ExecTime)
	})
	if !ok {
		return r.abandon(r.out.Attempted, "traced pass failed")
	}
	r.out.PerLayer = perLayerRows(r.ref, base, host[1], traced, prof)
	return r.out
}

// abandon closes the account of a child that cannot go on: every run it
// still planned counts as failed.
func (r *runner) abandon(planned int, why string) outcome {
	if planned > r.out.Attempted {
		r.out.Failed += planned - r.out.Attempted
		r.out.Attempted = planned
	}
	r.out.Errors = append(r.out.Errors, why)
	return r.out
}

// profiledReps is the length of the profiled pass: a quarter of the
// timed reps, at least one.
func profiledReps(timed int) int {
	if timed < 4 {
		return 1
	}
	return timed / 4
}

// profiledPass is what the CPU-profiled reps yield: where host CPU time
// went, by layer, and what the process cost the operating system.
type profiledPass struct {
	cpuS, sysPct, gcCycles, peakRSSMB float64
	pct                               map[string]float64 // bucket → % of samples
}

func (r *runner) profiled(reps int) (profiledPass, bool) {
	var buf bytes.Buffer
	var ru0, ru1 syscall.Rusage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		r.out.Errors = append(r.out.Errors, "getrusage: "+err.Error())
		return profiledPass{}, false
	}
	if err := pprof.StartCPUProfile(&buf); err != nil {
		r.out.Errors = append(r.out.Errors, "cpu profile: "+err.Error())
		return profiledPass{}, false
	}
	done := 0
	for i := 0; i < reps; i++ {
		if r.attempt("profiled", func() error { _, err := r.plain(nil, nil); return err }) {
			done++
		}
	}
	pprof.StopCPUProfile()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1) // same call succeeded a moment ago
	runtime.ReadMemStats(&m1)
	if done == 0 {
		return profiledPass{}, false
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		r.out.Errors = append(r.out.Errors, "cpu profile: "+err.Error())
		return profiledPass{}, false
	}
	user := tvSeconds(ru1.Utime) - tvSeconds(ru0.Utime)
	sys := tvSeconds(ru1.Stime) - tvSeconds(ru0.Stime)
	p := profiledPass{
		cpuS:      (user + sys) / float64(done),
		gcCycles:  float64(m1.NumGC-m0.NumGC) / float64(done),
		peakRSSMB: float64(ru1.Maxrss) / 1e3, // Linux reports kilobytes
		pct:       bucketShares(samples),
	}
	if user+sys > 0 {
		p.sysPct = 100 * sys / (user + sys)
	}
	return p, true
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// tracedPass is what the traced rep yields.
type tracedPass struct {
	hostS float64
	reg   *trace.Registry
	edges int
	path  *trace.CriticalPath
}

// checkTiling verifies the critical path's exact-tiling invariant: the
// categories sum to the end rank's absolute finish time, which is the
// run's ExecTime plus the boot that precedes the application.
func (t tracedPass) checkTiling(exec sim.Time) error {
	if t.path == nil {
		return fmt.Errorf("causal collector recorded no end marks")
	}
	var sum int64
	for _, d := range t.path.ByCat {
		sum += d
	}
	if sum != t.path.EndT || t.path.Total() != t.path.EndT {
		return fmt.Errorf("critical-path categories sum to %d ns, not the %d ns end time", sum, t.path.EndT)
	}
	if t.path.EndT < int64(exec) {
		return fmt.Errorf("critical path ends at %d ns, before ExecTime %d ns", t.path.EndT, int64(exec))
	}
	return nil
}

// counter reads a registry counter that a layer may never have touched.
func counter(reg *trace.Registry, key string) trace.Counter {
	if c := reg.Lookup(key); c != nil {
		return *c
	}
	return trace.Counter{}
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }

// perLayerRows assembles a workload's per-layer metrics: R rows from the
// timed reps' Result, T rows from the traced rep, P rows from the
// profiled reps (README.md says which metric each should move).
func perLayerRows(res *tmk.Result, base sim.Time, hostS float64, t tracedPass, p profiledPass) []row {
	var rows []row
	add := func(name, unit string, v float64) { rows = append(rows, row{Name: name, Unit: unit, Value: v}) }
	count := func(name string, v int64) { add(name, "count", float64(v)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reg, st, tp := t.reg, &res.Stats, &res.Transport

	events := counter(reg, "sim/events").N
	count("sim.events", events)
	count("sim.interrupts", counter(reg, "sim/interrupts").N)
	add("sim.advance_virt_ms", "virt_ms", float64(counter(reg, "sim/advance").Sum)/1e6)
	add("sim.host_ns_per_event", "ns", ratio(hostS*1e9, float64(events)))

	pk := counter(reg, "myrinet/packets")
	count("myrinet.packets", pk.N)
	add("myrinet.wire_bytes", "B", float64(pk.Sum))
	var txBusy int64
	if h := reg.LookupHistogram("myrinet/txlink.occupancy.ns"); h != nil {
		txBusy = h.Sum
	}
	add("myrinet.txlink_busy_virt_ms", "virt_ms", float64(txBusy)/1e6)

	var sends trace.Counter // gm counts sends per size class
	for _, k := range reg.CounterNames() {
		if strings.HasPrefix(k, "gm/send.class") {
			c := counter(reg, k)
			sends.Add(c.N, c.Sum)
		}
	}
	count("gm.sends", sends.N)
	add("gm.send_bytes", "B", float64(sends.Sum))
	count("gm.recvs", counter(reg, "gm/recv").N)
	count("gm.nic_interrupts", counter(reg, "gm/nic.interrupts").N)
	count("gm.token_stalls", counter(reg, "gm/token.stalls").N)
	count("gm.parked", counter(reg, "gm/parked").N)
	add("gm.pinned_peak_mb", "MB", float64(res.MaxPinnedBytes)/1e6)

	count("sockets.datagrams_sent", counter(reg, "sockets/datagrams.sent").N)
	count("sockets.sigio", counter(reg, "sockets/sigio").N)
	count("sockets.drops", counter(reg, "sockets/drops").N)

	count("substrate.requests", tp.RequestsSent)
	count("substrate.forwards", tp.ForwardsSent)
	add("substrate.bytes_sent", "B", float64(tp.BytesSent))
	count("substrate.async_wakeups", tp.AsyncWakeups)
	count("substrate.retransmits", tp.Retransmits)
	count("substrate.rendezvous_rts", tp.RendezvousRTS)
	count("substrate.sendbuf_stalls", tp.SendBufStalls)
	add("substrate.reply_wait_virt_ms", "virt_ms", ms(tp.ReplyWaitTime))
	add("substrate.request_service_virt_ms", "virt_ms", ms(tp.RequestService))
	add("substrate.credit_wait_virt_ms", "virt_ms", ms(tp.CreditWaitTime))
	count("substrate.puts", tp.OneSidedPuts)
	count("substrate.gets", tp.OneSidedGets)
	add("substrate.bytes_put", "B", float64(tp.OneSidedBytesPut))
	add("substrate.bytes_got", "B", float64(tp.OneSidedBytesGot))

	count("tmk.read_faults", st.ReadFaults)
	count("tmk.write_faults", st.WriteFaults)
	count("tmk.page_fetches", st.PageFetches)
	count("tmk.diff_requests", st.DiffRequestsSent)
	count("tmk.diffs_created", st.DiffsCreated)
	add("tmk.diff_bytes_created", "B", float64(st.DiffBytesCreated))
	count("tmk.diffs_applied", st.DiffsApplied)
	count("tmk.twins_created", st.TwinsCreated)
	add("tmk.fault_virt_ms", "virt_ms", ms(st.FaultTime))
	count("tmk.barriers", st.Barriers)
	add("tmk.barrier_wait_virt_ms", "virt_ms", ms(st.BarrierWait))
	add("tmk.meta_peak_kb", "KB", float64(st.MetaBytesPeak)/1e3)
	count("tmk.locks_remote", st.LockAcquiresRemote)
	add("tmk.lock_wait_virt_ms", "virt_ms", ms(st.LockWait))
	count("tmk.home_flushes", st.HomeFlushes)
	add("tmk.home_flush_bytes", "B", float64(st.HomeFlushBytes))
	count("tmk.home_fetches", st.HomeFetches)
	rows = append(rows, row{Name: "tmk.puts_per_home_flush", Unit: "ratio",
		Value: ratio(float64(tp.OneSidedPuts), float64(st.HomeFlushes)),
		Note:  "substrate.puts ÷ tmk.home_flushes; 1 is ideal"})

	by := t.path.ByCat
	add("crit.compute_ms", "virt_ms", float64(by[trace.CatCompute])/1e6)
	add("crit.wire_ms", "virt_ms", float64(by[trace.CatWire])/1e6)
	add("crit.gm_ms", "virt_ms", float64(by[trace.CatGM])/1e6)
	add("crit.manager_ms", "virt_ms", float64(by[trace.CatManager])/1e6)
	add("crit.straggler_ms", "virt_ms", float64(by[trace.CatStraggler])/1e6)
	rows = append(rows, row{Name: "crit.total_ms", Unit: "virt_ms", Value: float64(t.path.EndT) / 1e6,
		Note: fmt.Sprintf("the five above, exactly; = virt_exec_ms %v + boot", ms(res.ExecTime))})
	count("crit.edges", int64(t.edges))

	add("apps.seq_virt_ms", "virt_ms", ms(base))

	add("host.cpu_s_per_run", "s", p.cpuS)
	add("host.sys_pct", "%", p.sysPct)
	add("host.gc_cycles_per_run", "count", p.gcCycles)
	add("host.peak_rss_mb", "MB", p.peakRSSMB)
	for _, b := range buckets {
		add("host.cpu_pct."+b, "%", p.pct[b])
	}
	rows = append(rows, row{Name: "trace.host_overhead_pct", Unit: "%", Value: 100 * (ratio(t.hostS, hostS) - 1),
		Note: fmt.Sprintf("traced rep %.4f s ÷ host_s_per_run %.4f s − 1", t.hostS, hostS)})
	return rows
}

// quartiles returns the first quartile, median and third quartile of xs
// (linear interpolation between closest ranks).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
