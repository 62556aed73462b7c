package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// smallApps is the quick determinism matrix: tiny instances of all four
// applications.
func smallApps() []apps.App {
	return []apps.App{
		&apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
}

// TestCausalContextDoesNotPerturbResults extends the tracing-on/off
// determinism regression to the causal collector: attaching one — which
// makes every frame carry its span in its envelope metadata — must leave
// virtual end times and every protocol/transport counter bit-identical on
// all three substrates, because the span rides beside the frame (unbilled
// metadata), never in the charged payload.
func TestCausalContextDoesNotPerturbResults(t *testing.T) {
	for _, app := range smallApps() {
		for _, kind := range AllTransports {
			for _, n := range []int{2, 4, 8} {
				name := fmt.Sprintf("%s/%s/%dp", app.Name(), kind, n)
				t.Run(name, func(t *testing.T) {
					plain, err := RunApp(app, n, kind, nil)
					if err != nil {
						t.Fatal(err)
					}
					cz := trace.NewCausal()
					traced, err := RunApp(app, n, kind, func(cfg *tmk.Config) {
						cfg.Causal = cz
					})
					if err != nil {
						t.Fatal(err)
					}
					if cz.Len() == 0 {
						t.Fatal("causal collector attached but recorded no edges")
					}
					if plain.ExecTime != traced.ExecTime {
						t.Errorf("ExecTime diverged: plain %v causal %v", plain.ExecTime, traced.ExecTime)
					}
					if plain.Stats != traced.Stats {
						t.Errorf("tmk.Stats diverged:\nplain  %+v\ncausal %+v", plain.Stats, traced.Stats)
					}
					if plain.Transport != traced.Transport {
						t.Errorf("substrate.Stats diverged:\nplain  %+v\ncausal %+v", plain.Transport, traced.Transport)
					}
					for i := range plain.PerProc {
						if plain.PerProc[i] != traced.PerProc[i] {
							t.Errorf("rank %d time diverged: plain %v causal %v", i, plain.PerProc[i], traced.PerProc[i])
						}
					}
				})
			}
		}
	}
}

// TestCriticalPathSumsToEndToEnd is the critical-path extractor's
// tiling invariant (DESIGN.md §13): for every application × transport,
// the path's segments tile [0, endT] exactly, so the per-category
// attributions sum to the end-to-end virtual time with zero residue.
func TestCriticalPathSumsToEndToEnd(t *testing.T) {
	for _, app := range smallApps() {
		for _, kind := range AllTransports {
			t.Run(fmt.Sprintf("%s/%s", app.Name(), kind), func(t *testing.T) {
				cz := trace.NewCausal()
				res, err := RunApp(app, 4, kind, func(cfg *tmk.Config) {
					cfg.Causal = cz
				})
				if err != nil {
					t.Fatal(err)
				}
				cp := cz.CriticalPath()
				if cp == nil || len(cp.Segs) == 0 {
					t.Fatal("empty critical path")
				}
				if cp.Total() != cp.EndT {
					t.Errorf("segments sum to %d, end-to-end is %d (residue %d)",
						cp.Total(), cp.EndT, cp.EndT-cp.Total())
				}
				var byCat int64
				for _, ns := range cp.ByCat {
					byCat += ns
				}
				if byCat != cp.Total() {
					t.Errorf("category attributions sum to %d, segments to %d", byCat, cp.Total())
				}
				// EndT is the latest rank's absolute end mark: it covers setup
				// (allocation, page distribution) plus the timed application
				// phase, so it can only meet or exceed ExecTime.
				if got := sim.Time(cp.EndT); got < res.ExecTime {
					t.Errorf("end mark %v earlier than exec time %v", got, res.ExecTime)
				}
				for i := 1; i < len(cp.Segs); i++ {
					if cp.Segs[i].Start != cp.Segs[i-1].End {
						t.Fatalf("segment %d starts at %d, previous ends at %d (gap)",
							i, cp.Segs[i].Start, cp.Segs[i-1].End)
					}
				}
				if cp.Segs[0].Start != 0 || cp.Segs[len(cp.Segs)-1].End != cp.EndT {
					t.Errorf("path covers [%d, %d], want [0, %d]",
						cp.Segs[0].Start, cp.Segs[len(cp.Segs)-1].End, cp.EndT)
				}
			})
		}
	}
}

// TestCriticalSmokeSORFastGM is the `make critical-smoke` entry point:
// one SOR run over FAST/GM must yield a non-empty critical path whose
// attributions sum to the end-to-end virtual time, and whose rendering
// (tmkrun -critical's) opens with the header and closes the category
// table on the whole of it.
func TestCriticalSmokeSORFastGM(t *testing.T) {
	app := &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	cz := trace.NewCausal()
	if _, err := RunApp(app, 4, tmk.TransportFastGM, func(cfg *tmk.Config) {
		cfg.Causal = cz
	}); err != nil {
		t.Fatal(err)
	}
	cp := cz.CriticalPath()
	if cp == nil || len(cp.Segs) == 0 {
		t.Fatal("empty critical path")
	}
	if cp.Total() != cp.EndT {
		t.Fatalf("segments sum to %d, end-to-end is %d", cp.Total(), cp.EndT)
	}
	var out strings.Builder
	if err := trace.WriteCriticalPath(&out, "critical path", cp, 3); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	total := fmt.Sprintf("  %-20s %12.3f %6.1f%%\n", "total", float64(cp.EndT)/1e6, 100.0)
	if !strings.HasPrefix(text, "critical path: end rank ") || !strings.Contains(text, total) ||
		!strings.Contains(text, "heaviest segments (3 of ") {
		t.Errorf("rendered critical path:\n%s", text)
	}
}

// TestChromeExportCarriesFlowArrows pins the Perfetto flow emission: the
// Chrome export of a traced run must contain one "s"/"f" flow-event pair
// per edge the causal view of the same stream accepted, so the UI draws
// message arrows between the process tracks.
func TestChromeExportCarriesFlowArrows(t *testing.T) {
	app := &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	tracer := trace.New(0)
	cz := trace.NewCausal()
	if _, err := RunApp(app, 4, tmk.TransportFastGM, func(cfg *tmk.Config) {
		cfg.Trace = tracer
		cfg.Causal = cz
	}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			BP  string `json:"bp"`
			ID  uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	starts, finishes := map[uint64]bool{}, map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Cat != "causal" {
			continue
		}
		switch e.Ph {
		case "s":
			starts[e.ID] = true
		case "f":
			if e.BP != "e" {
				t.Errorf("flow finish %d lacks bp:e enclosing-slice binding", e.ID)
			}
			finishes[e.ID] = true
		}
	}
	if len(starts) == 0 {
		t.Fatal("export contains no causal flow events")
	}
	for id := range starts {
		if !finishes[id] {
			t.Errorf("flow %d has a start but no finish", id)
		}
	}
	for id := range finishes {
		if !starts[id] {
			t.Errorf("flow %d has a finish but no start", id)
		}
	}
	accepted := 0
	for _, e := range cz.Edges() {
		if e.Arrived() {
			accepted++
		}
	}
	if len(starts) != accepted {
		t.Errorf("%d flows for %d accepted edges", len(starts), accepted)
	}
}

// TestCausalReplayEqualsLive: the causal view is a pure reduction of the
// trace stream, so feeding a traced run's recorded events (Tracer.Events)
// into a fresh Causal must rebuild exactly what the live subscriber
// built — every edge, the duplicate count and the critical path — on
// every substrate.
func TestCausalReplayEqualsLive(t *testing.T) {
	app := &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	for _, kind := range AllTransports {
		t.Run(string(kind), func(t *testing.T) {
			tracer, live := trace.New(1<<20), trace.NewCausal()
			tracer.Subscribe(live.Observe)
			if _, err := RunApp(app, 4, kind, func(cfg *tmk.Config) {
				cfg.Trace = tracer
			}); err != nil {
				t.Fatal(err)
			}
			if n := tracer.Overwrote(); n > 0 {
				t.Fatalf("ring wrapped (%d events lost): raise the capacity", n)
			}
			replay := trace.NewCausal()
			for _, e := range tracer.Events() {
				replay.Observe(e)
			}
			if live.Len() == 0 {
				t.Fatal("the live view recorded no edge")
			}
			if !reflect.DeepEqual(replay.Edges(), live.Edges()) {
				t.Errorf("replay rebuilt %d edges, the live view %d, and they differ", replay.Len(), live.Len())
			}
			if replay.DupArrivals() != live.DupArrivals() {
				t.Errorf("replay counted %d duplicate arrivals, the live view %d", replay.DupArrivals(), live.DupArrivals())
			}
			got, want := replay.CriticalPath(), live.CriticalPath()
			if want == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("replayed critical path differs from the live one:\nreplay %+v\nlive   %+v", got, want)
			}
		})
	}
}

// TestLockChainOnCriticalPath crafts a fully contended lock — every
// rank loops acquire/increment/release on the same lock between two
// barriers — and requires the extracted critical path to walk the lock
// handoff chain: grant edges must appear on the path, and the manager
// indirection of at least one chased acquire must be attributed.
func TestLockChainOnCriticalPath(t *testing.T) {
	for _, kind := range Transports {
		t.Run(string(kind), func(t *testing.T) {
			cz := trace.NewCausal()
			cfg := tmk.DefaultConfig(4, kind)
			cfg.Causal = cz
			if _, err := tmk.Run(cfg, func(tp *tmk.Proc) {
				r := tp.AllocShared(8)
				tp.Barrier(1)
				for k := 0; k < 3; k++ {
					tp.LockAcquire(1)
					tp.WriteF64(r, 0, tp.ReadF64(r, 0)+1)
					tp.LockRelease(1)
				}
				tp.Barrier(2)
			}); err != nil {
				t.Fatal(err)
			}
			cp := cz.CriticalPath()
			if cp == nil || len(cp.Segs) == 0 {
				t.Fatal("empty critical path")
			}
			if cp.Total() != cp.EndT {
				t.Fatalf("segments sum to %d, end-to-end is %d", cp.Total(), cp.EndT)
			}
			lockEdges := 0
			for _, s := range cp.Segs {
				if strings.Contains(s.Kind, "lock") {
					lockEdges++
				}
			}
			if lockEdges == 0 {
				t.Errorf("no lock-handoff edges on the critical path (%d segments)", len(cp.Segs))
				for _, s := range cp.Segs {
					t.Logf("  %-20s %-22s %2d->%-2d [%d, %d]", s.Cat, s.Kind, s.From, s.To, s.Start, s.End)
				}
			}
		})
	}
}

// causalVariant is one substrate configuration the DAG integrity test
// runs: every substrate, and FAST/GM with rendezvous, whose data frame is
// staged apart from the request it carries.
type causalVariant struct {
	name       string
	kind       tmk.TransportKind
	rendezvous bool
}

func causalVariants() []causalVariant {
	var vs []causalVariant
	for _, kind := range AllTransports {
		vs = append(vs, causalVariant{name: string(kind), kind: kind})
	}
	return append(vs, causalVariant{name: "fastgm-rendezvous", kind: tmk.TransportFastGM, rendezvous: true})
}

// TestCausalDAGIntegrityUnderChaos runs a seeded lossy fabric (drop,
// corruption, jitter, a blackout window) with the collector attached
// and holds the DAG to its integrity invariants: duplicate frames from
// retransmission are suppressed (counted, never re-recorded), every
// reply edge has a matching accepted request edge, and every parent
// pointer resolves to an earlier-sent edge — no orphan spans.
//
// A resent frame keeps its span (DESIGN.md §13.2): every reply, forward
// and completion but a barrier release (whose parent is the enabling
// arrival, or none) names a parent accepted no later than it was sent. A
// retransmission that lost its span leaves the copy that got through
// unaccepted and what answers it parentless. On UDP/GM, which retries
// whole requests on a timer, every redelivered request is a duplicate
// acceptance of its span. FAST/GM's GM layer reports undelivered frames
// as failures (retransmission is first delivery, not a duplicate), so
// there the invariant is retransmission activity with zero duplicate
// edges. The clean case runs all four applications on every variant and
// requires every edge accepted.
func TestCausalDAGIntegrityUnderChaos(t *testing.T) {
	spec := DefaultChaosSpec()
	// Crank the loss past the sweep default so the retransmission paths
	// fire many times even on these tiny runs.
	spec.Drop = 0.08
	app := &apps.SOR{M: 64, N: 32, Iters: 6, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	for _, v := range causalVariants() {
		t.Run(v.name, func(t *testing.T) {
			cz := trace.NewCausal()
			tracer, dups, spanless := trace.New(1), 0, 0
			tracer.Subscribe(func(e trace.Event) {
				if e.Kind == "dup-request" {
					dups++
					if e.A == 0 {
						spanless++
					}
				}
			})
			res, err := RunApp(app, spec.Nodes, v.kind, func(cfg *tmk.Config) {
				spec.Mutate(cfg)
				cfg.Rendezvous = v.rendezvous
				cfg.Trace, cfg.Causal = tracer, cz
			})
			if err != nil {
				t.Fatal(err)
			}
			// A filter's re-relay of a forwarded request is one of these
			// copies: it must carry the forward's span like any resend.
			if spanless > 0 {
				t.Errorf("%d of %d redelivered requests carried no span", spanless, dups)
			}
			switch v.kind {
			case tmk.TransportUDPGM:
				if cz.DupArrivals() == 0 {
					t.Error("chaos run produced no duplicate arrivals — suppression path untested")
				}
				if cz.DupArrivals() < res.Transport.DupRequests {
					t.Errorf("%d duplicate arrivals for %d duplicate requests: a redelivered request lost its span",
						cz.DupArrivals(), res.Transport.DupRequests)
				}
				if res.Transport.Retransmits == 0 {
					t.Error("no UDP retransmissions despite injected loss")
				}
			default:
				if res.Transport.GMRetransmits == 0 {
					t.Error("no GM retransmissions despite injected loss")
				}
			}
			checkCausalDAG(t, cz.Edges())
		})
	}
	for _, a := range smallApps() {
		for _, v := range causalVariants() {
			t.Run("clean/"+a.Name()+"/"+v.name, func(t *testing.T) {
				cz := trace.NewCausal()
				if _, err := RunApp(a, 4, v.kind, func(cfg *tmk.Config) {
					cfg.Rendezvous = v.rendezvous
					cfg.Causal = cz
				}); err != nil {
					t.Fatal(err)
				}
				edges := cz.Edges()
				unaccepted := 0
				for _, e := range edges {
					if !e.Arrived() {
						unaccepted++
					}
				}
				if unaccepted > 0 {
					t.Errorf("%d of %d edges never accepted on a clean fabric", unaccepted, len(edges))
				}
				checkCausalDAG(t, edges)
			})
		}
	}
}

// checkCausalDAG holds edges to TestCausalDAGIntegrityUnderChaos's
// invariants.
func checkCausalDAG(t *testing.T, edges []trace.CausalEdge) {
	t.Helper()
	reqArrivedFrom := map[int]bool{}
	type sig struct {
		kind     string
		from, to int
		sendT    int64
		parent   uint64
	}
	seen := map[sig]int{}
	unparented := 0
	for _, e := range edges {
		seen[sig{e.Kind, e.From, e.To, e.SendT, e.Parent}]++
		if e.Arrived() && (strings.HasPrefix(e.Kind, "req:") || strings.HasPrefix(e.Kind, "fwd:")) {
			reqArrivedFrom[e.From] = true
		}
		var p *trace.CausalEdge
		if e.Parent != 0 {
			p = findEdge(edges, e.Parent)
			if p == nil {
				t.Fatalf("edge %d (%s) has dangling parent %d", e.ID, e.Kind, e.Parent)
			}
			if p.SendT > e.SendT {
				t.Errorf("edge %d (%s) sent at %d before its parent %d (%s) at %d",
					e.ID, e.Kind, e.SendT, p.ID, p.Kind, p.SendT)
			}
		}
		answers := strings.HasPrefix(e.Kind, "rep:") || strings.HasPrefix(e.Kind, "fwd:") ||
			strings.HasPrefix(e.Kind, "comp:")
		if answers && e.Kind != "rep:barrier-release" && (p == nil || !p.Arrived() || p.RecvT > e.SendT) {
			if unparented++; unparented <= 5 {
				t.Errorf("edge %d (%s, %d->%d, sent at %d) names parent %d, not a frame accepted by then",
					e.ID, e.Kind, e.From, e.To, e.SendT, e.Parent)
			}
		}
	}
	if unparented > 5 {
		t.Errorf("%d answering edges in all name no accepted parent", unparented)
	}
	for s, n := range seen {
		if n > 1 {
			t.Errorf("duplicate edge recorded %d times: %+v", n, s)
		}
	}
	for _, e := range edges {
		if !e.Arrived() || !strings.HasPrefix(e.Kind, "rep:") {
			continue
		}
		if !reqArrivedFrom[e.To] {
			t.Errorf("reply edge %d (%s) to rank %d has no accepted request from that rank",
				e.ID, e.Kind, e.To)
		}
	}
}

func findEdge(edges []trace.CausalEdge, id uint64) *trace.CausalEdge {
	if id == 0 || id > uint64(len(edges)) {
		return nil
	}
	return &edges[id-1]
}
