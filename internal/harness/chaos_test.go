package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/myrinet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// TestChaosSweep is the robustness tentpole's end-to-end gate: all four
// applications on both transports over the default lossy fabric, with
// every invariant (correctness, recovery activity, no residual disabled
// ports, zero-probability identity) checked by Chaos itself.
func TestChaosSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := Chaos(&buf, DefaultChaosSpec()); err != nil {
		t.Fatalf("%v\nreport so far:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "all invariants held") {
		t.Errorf("report missing verdict:\n%s", buf.String())
	}
}

// TestChaosDeterministic: the same spec and seed must reproduce the exact
// same faulted run — drops, stalls, recoveries and all — on every cell of
// the sweep's applications × all three substrates. This is what makes a
// chaos failure replayable; Chaos itself runs only the two-sided
// substrates, so this is rdmagm's chaos check too. Every run verifies and
// leaves no GM port disabled, and the home-based runs recover lost verbs
// from the waiting process (the core's wait loop), not from a timer, so
// they must have posted puts and retransmitted verbs.
func TestChaosDeterministic(t *testing.T) {
	spec := DefaultChaosSpec()
	var rdmaPuts, rdmaRetx int64
	for _, app := range chaosApps() {
		for _, kind := range AllTransports {
			a, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
			if err != nil {
				t.Fatalf("%s/%s run A: %v", app.Name(), kind, err)
			}
			b, err := VerifiedRun(app, spec.Nodes, kind, spec.Mutate)
			if err != nil {
				t.Fatalf("%s/%s run B: %v", app.Name(), kind, err)
			}
			if err := sameResult(a, b); err != nil {
				t.Errorf("%s/%s: same seed, different faulted run: %v", app.Name(), kind, err)
			}
			if a.NetFaults != b.NetFaults {
				t.Errorf("%s/%s: fault schedule diverged: %+v vs %+v", app.Name(), kind, a.NetFaults, b.NetFaults)
			}
			if a.DisabledPorts != 0 {
				t.Errorf("%s/%s: %d GM ports left disabled", app.Name(), kind, a.DisabledPorts)
			}
			if kind == tmk.TransportRDMAGM {
				rdmaPuts += a.Transport.OneSidedPuts
				rdmaRetx += a.Transport.Retransmits
			}
		}
	}
	t.Logf("rdmagm posted %d puts and retransmitted %d verbs", rdmaPuts, rdmaRetx)
	if rdmaPuts == 0 || rdmaRetx == 0 {
		t.Errorf("rdmagm runs posted %d puts and retransmitted %d verbs; weak test", rdmaPuts, rdmaRetx)
	}
}

// TestChaosSeedChangesFaultSchedule: a different seed must explore a
// different fault schedule (otherwise the -seed flag is theater).
func TestChaosSeedChangesFaultSchedule(t *testing.T) {
	spec := DefaultChaosSpec()
	app := chaosApps()[1]
	res1, err := VerifiedRun(app, spec.Nodes, tmk.TransportFastGM, spec.Mutate)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Seed = 7
	res2, err := VerifiedRun(app, spec2.Nodes, tmk.TransportFastGM, spec2.Mutate)
	if err != nil {
		t.Fatal(err)
	}
	if res1.NetFaults == res2.NetFaults && res1.ExecTime == res2.ExecTime {
		t.Errorf("seeds 1 and 7 produced identical fault schedules and timings: %+v", res1.NetFaults)
	}
}

// TestChaosSpecFaults: the spec→FaultConfig rendering.
func TestChaosSpecFaults(t *testing.T) {
	fc := DefaultChaosSpec().Faults()
	if !fc.Enabled() {
		t.Fatal("default chaos spec renders a disabled fault config")
	}
	if len(fc.Blackouts) != 1 || fc.Blackouts[0].Dst != 0 || fc.Blackouts[0].Src != -1 {
		t.Errorf("blackout should target every link into node 0: %+v", fc.Blackouts)
	}
	none := ChaosSpec{Nodes: 4, Seed: 1}
	if nfc := none.Faults(); nfc.Enabled() {
		t.Errorf("zero spec must render a disabled fault config: %+v", nfc)
	}
	zero := myrinet.FaultConfig{}
	if zero.Enabled() {
		t.Error("zero FaultConfig reports enabled")
	}
}

// TestRegistryHoldsOnlyBenchmarkInputs: the metric registry's one reader
// is benchmark/run.go's perLayerRows, so a counter key it does not read
// counts an occurrence a second time beside the Stats field or trace event
// that records it already. A traced run of every chaos app on all three
// substrates under the lossy default spec — the runs that reach the
// recovery paths — registers no counter outside the keys perLayerRows
// reads (gm's send counters are one per size class, summed by prefix).
func TestRegistryHoldsOnlyBenchmarkInputs(t *testing.T) {
	read := []string{
		"sim/events", "sim/advance", "sim/interrupts",
		"myrinet/packets",
		"gm/recv", "gm/nic.interrupts", "gm/token.stalls", "gm/parked",
		"sockets/datagrams.sent", "sockets/sigio", "sockets/drops",
	}
	spec := DefaultChaosSpec()
	for _, app := range chaosApps() {
		for _, kind := range AllTransports {
			tr := trace.New(1)
			if _, err := VerifiedRun(app, spec.Nodes, kind, func(cfg *tmk.Config) {
				spec.Mutate(cfg)
				cfg.Trace = tr
			}); err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), kind, err)
			}
			reg := tr.Metrics()
			if reg.Lookup("sim/events") == nil {
				t.Fatalf("%s/%s: traced run registered no sim/events", app.Name(), kind)
			}
			for _, k := range reg.CounterNames() {
				if !slices.Contains(read, k) && !strings.HasPrefix(k, "gm/send.class") {
					t.Errorf("%s/%s: counter %q is read by no benchmark row", app.Name(), kind, k)
				}
			}
		}
	}
}
