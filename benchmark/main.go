// Command benchmark is the repository's two-clock benchmark: six
// whole-application workloads, each measured in virtual time (the
// modelled testbed) and in host time and memory (what the simulator
// costs), with per-layer numbers taken from outside the program — result
// counters, a traced pass, a CPU-profiled pass and a layer probe.
//
//	go run ./benchmark -seed 1 [-out FILE]
//
// README.md in this directory defines every metric and workload.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

const (
	probeName = "probe" // the layer probe's child, beside the workloads'
	// childTimeout bounds one child. The simulator reports a deadlock
	// itself; this catches a livelock, and keeps a run inside the 180 s a
	// caller may allow.
	childTimeout = 150 * time.Second
)

func main() {
	started := time.Now()
	var (
		seed      = flag.Int64("seed", 1, "workload seed: tmk.Config.Seed of every run")
		out       = flag.String("out", "", "also write the results to this file as JSON")
		only      = flag.String("workload", "", "run only this workload (in a child process, like all of them)")
		seconds   = flag.Float64("seconds", 0, "timed window per workload in host seconds (0: the fixed rep counts)")
		traceMode = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		child     = flag.Bool("child", false, "run -workload in this process and stream events as JSON lines (what the driver starts; for debugging)")
		compare   = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare the two")
	)
	flag.Parse()
	mode := options{seed: *seed, seconds: *seconds, trace: *traceMode}
	var err error
	switch {
	case *child:
		err = childMain(*only, mode, started)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare A.json B.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = selfCheck(os.Stdout, mode)
	default:
		err = drive(os.Stdout, *only, mode, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain runs one workload (or the probe) in this process.
func childMain(name string, o options, started time.Time) error {
	enc := json.NewEncoder(os.Stdout)
	emit := func(ev event) { _ = enc.Encode(ev) } // a closed pipe means the driver is gone
	var out outcome
	if name == probeName {
		out = runProbe(emit)
	} else {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		out = runWorkload(w, o, started, emit)
	}
	emit(event{Outcome: &out})
	return nil
}

// childCommand re-executes this binary as the child for name.
func childCommand(ctx context.Context, name string, o options) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace)), nil
}

// supervise runs one child to its end and returns its outcome. A child
// that panics, is killed or times out still yields an outcome: the runs
// it had planned and did not finish are failures, and the first line of
// its standard error says why.
func supervise(cmd *exec.Cmd, name string) outcome {
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return outcome{Name: name, Attempted: 1, Failed: 1, Errors: []string{"starting child: " + err.Error()}}
	}
	var final *outcome
	plan, done, okRuns := 0, 0, 0
	var errs []string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // not ours: a layer printed something
		}
		switch {
		case ev.Outcome != nil:
			final = ev.Outcome
		case ev.Run != "":
			done++
			if ev.Err == "" {
				okRuns++
			} else {
				errs = append(errs, ev.Run+": "+ev.Err)
			}
		case ev.Plan > plan:
			plan = ev.Plan
		}
	}
	waitErr := cmd.Wait()
	if final != nil && waitErr == nil {
		return *final
	}
	// The child died. The run in flight failed, and so did all it planned.
	attempted := done + 1
	if plan > attempted {
		attempted = plan
	}
	why := "child died"
	if waitErr != nil {
		why = "child died: " + waitErr.Error()
	}
	if line := panicLine(stderr.String()); line != "" {
		why += ": " + line
	}
	return outcome{Name: name, Attempted: attempted, Failed: attempted - okRuns, Errors: append(errs, why)}
}

// panicLine picks the line of a dead child's standard error that says
// why it died: the panic's first line, or failing that the first line.
func panicLine(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "panic:") || strings.HasPrefix(l, "fatal error:") {
			return l
		}
	}
	return lines[0]
}

// runChild runs one workload, or the probe, in a child process of its
// own. Progress goes to standard error.
func runChild(name string, o options) outcome {
	fmt.Fprintf(os.Stderr, "benchmark: running %s\n", name)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd, err := childCommand(ctx, name, o)
	if err != nil {
		return outcome{Name: name, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	return supervise(cmd, name)
}

// children lists what one invocation runs: the chosen workload or all of
// them, then the probe if per-layer numbers are wanted.
func children(only string, o options) []string {
	names := []string{only}
	if only == "" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	if o.layers() {
		names = append(names, probeName)
	}
	return names
}

// drive is the benchmark proper: run, report, and — for one workload —
// end with the one-line JSON result the caller's contract asks for.
func drive(w io.Writer, only string, o options, outFile string) error {
	if _, ok := workloadByName(only); only != "" && !ok {
		return fmt.Errorf("unknown workload %q", only)
	}
	set := newResultSet(o.seed)
	for _, name := range children(only, o) {
		set.add(runChild(name, o))
	}
	set.print(w)
	if outFile != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if only != "" {
		b, err := json.Marshal(set.contract(only))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return nil
}
