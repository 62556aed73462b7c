package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// captureFinalState runs app on n ranks over the given transport/protocol
// and returns rank 0's final shared-memory contents, region by region
// (fault-completed: every page is pulled valid before capture).
func captureFinalState(t *testing.T, app apps.App, n int, kind tmk.TransportKind,
	seed int64, homeBased bool) ([][]byte, *tmk.Result) {
	t.Helper()
	cfg := tmk.DefaultConfig(n, kind)
	cfg.Seed = seed
	cfg.HomeBased = homeBased
	var final [][]byte
	var verr error
	var pages int32
	c := tmk.NewCluster(cfg)
	res, err := c.Run(func(tp *tmk.Proc) {
		app.Run(tp)
		tp.Barrier(2_000_000)
		if tp.Rank() == 0 {
			for id := int32(0); ; id++ {
				r := tp.RegionByID(id)
				if r == nil {
					break
				}
				final = append(final, append([]byte(nil), tp.ReadBytes(r, 0, int(r.Bytes))...))
				pages = r.StartPage + r.NPages
			}
			verr = app.Verify(tp)
		}
	})
	if err != nil {
		t.Fatalf("%s n=%d %s home=%v: %v", app.Name(), n, kind, homeBased, err)
	}
	if verr != nil {
		t.Fatalf("%s n=%d %s home=%v: verify: %v", app.Name(), n, kind, homeBased, verr)
	}
	// Every rank computes a page's home on its own, from its region's
	// geometry: all n must place every page alike.
	for pg := int32(0); homeBased && pg < pages; pg++ {
		for rank := 1; rank < n; rank++ {
			if h, h0 := c.Proc(rank).HomeOf(pg), c.Proc(0).HomeOf(pg); h != h0 {
				t.Fatalf("%s n=%d: rank %d homes page %d at %d, rank 0 at %d", app.Name(), n, rank, pg, h, h0)
			}
		}
	}
	return final, res
}

// TestHomeBasedMatchesHomeless is the home-based protocol's differential
// regression: for every application, node count, and seed, home-based
// LRC over the one-sided substrate must leave rank 0 with shared memory
// bit-identical to homeless LRC over fastgm (both additionally verify
// against the sequential reference). The protocols move data completely
// differently — diff Puts into home windows and whole-page Gets versus
// page fetches and per-writer diff chases — so agreement here pins down
// the consistency semantics, not the plumbing. Every home-based run must
// also end with every page homed alike on all ranks.
//
// Short mode (the Makefile's rdma-smoke) trims the matrix to one seed
// and two node counts.
func TestHomeBasedMatchesHomeless(t *testing.T) {
	appsUnder := []apps.App{
		&apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond},
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.TSP{Cities: 9, PrefixDepth: 2, CostPerNode: 40 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
	seeds := []int64{1, 2, 3}
	nodes := []int{2, 4, 8, 16}
	if testing.Short() {
		seeds = seeds[:1]
		nodes = []int{2, 4}
	}
	for _, app := range appsUnder {
		for _, n := range nodes {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/%dp/seed%d", app.Name(), n, seed)
				t.Run(name, func(t *testing.T) {
					homeless, _ := captureFinalState(t, app, n, tmk.TransportFastGM, seed, false)
					home, res := captureFinalState(t, app, n, tmk.TransportRDMAGM, seed, true)
					if len(homeless) != len(home) {
						t.Fatalf("region count diverged: homeless %d home-based %d", len(homeless), len(home))
					}
					for i := range homeless {
						if !bytes.Equal(homeless[i], home[i]) {
							t.Errorf("region %d contents diverged (%d bytes)", i, len(homeless[i]))
						}
					}
					// The home-based run must actually have used the verbs.
					if res.Transport.OneSidedGets == 0 {
						t.Error("home-based run posted no Get verbs")
					}
					// At n=2 an app's writers can happen to own every
					// page they dirty (home == writer), so only demand
					// flush traffic at wider node counts.
					if n > 2 && res.Stats.HomeFlushes == 0 {
						t.Error("home-based run flushed no diffs to homes")
					}
					if res.DisabledPorts != 0 {
						t.Errorf("%d GM ports left disabled", res.DisabledPorts)
					}
				})
			}
		}
	}
}

// TestBenchE3RDMAWinsHeadlineRows pins the E3 suite's reason to exist:
// on the page-fetch and all-writers diff-gather microbenchmarks the
// one-sided home-based path must beat the homeless fastgm path. A read
// fault is one firmware-serviced Get (or free, when the page is
// self-homed) instead of an interrupt, handler dispatch, and two host
// copies; a 15-writer page costs one home fetch instead of a 15-way
// gather whose occupancy grows with the writer count. The application
// rows extend the claim to whole programs: a one-sided path that wins
// microbenchmarks and loses the application is a regression. It runs
// nothing: the numbers are the checked-in BENCH_e3.json and BENCH_e2.json,
// which TestBenchReproducibleByteIdentical proves current.
func TestBenchE3RDMAWinsHeadlineRows(t *testing.T) {
	type row struct {
		name      string
		nodes     int
		transport tmk.TransportKind
	}
	rows := map[row]int64{}
	for _, suite := range []string{"e2", "e3"} {
		s, err := ReadBench("../../BENCH_" + suite + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range s.Entries {
			name := e.Name
			if suite == "e2" { // E2's application rows are E3's App/* comparators
				name = "App/" + name
			}
			rows[row{name, e.Nodes, tmk.TransportKind(e.Transport)}] = e.Value
		}
	}
	for _, r := range []row{{name: "Page", nodes: 4}, {name: "DiffMultiWriter/15w", nodes: 16}} {
		fast, okF := rows[row{r.name, r.nodes, tmk.TransportFastGM}]
		rdma, okR := rows[row{r.name, r.nodes, tmk.TransportRDMAGM}]
		if !okF || !okR {
			t.Fatalf("%s (n=%d): a transport's row is missing from BENCH_e3.json", r.name, r.nodes)
		}
		if rdma >= fast {
			t.Errorf("%s: rdmagm %d ns/op not faster than fastgm %d ns/op", r.name, rdma, fast)
		}
	}
	// Whole applications at default sizes, every size E3 carries: home-based
	// LRC on rdmagm must not lose to homeless LRC on fastgm, except where
	// listed — with the measured ratio rounded up to 0.05 as a ceiling, so
	// an exception can shrink but never quietly grow, and fails once it
	// wins. A cell with no ceiling is listed because it cannot be judged.
	type cell struct {
		app   string
		nodes int
	}
	const (
		lockBound   = "lock-bound: every release waits for its flush to complete at the home before the lock can move on"
		noFastGMRow = "no comparator row (ROADMAP item 7(a))"
	)
	exceptions := map[cell]struct {
		ceiling float64
		why     string
	}{
		{"tsp", 4}:     {1.05, lockBound},
		{"tsp", 8}:     {1.05, lockBound},
		{"jacobi", 16}: {0, noFastGMRow},
		{"sor", 16}:    {0, noFastGMRow},
		{"3dfft", 16}:  {0, noFastGMRow},
		{"tsp", 16}:    {0, noFastGMRow},
	}
	judged := 0
	for _, n := range []int{4, 8, 16} {
		for _, name := range AppNames {
			rdma, ok := rows[row{"App/" + name, n, tmk.TransportRDMAGM}]
			if !ok {
				t.Fatalf("App/%s (n=%d): no rdmagm row in BENCH_e3.json", name, n)
			}
			fast, ok := rows[row{"App/" + name, n, tmk.TransportFastGM}]
			ex := exceptions[cell{name, n}]
			if ok == (ex.why == noFastGMRow) {
				t.Errorf("%s (n=%d): fastgm row in BENCH_e2.json = %v, but the table says %q", name, n, ok, ex.why)
			}
			if !ok || ex.why == noFastGMRow {
				continue
			}
			judged++
			ratio := float64(rdma) / float64(fast)
			switch {
			case ex.why == "" && ratio > 1:
				t.Errorf("%s (n=%d): rdmagm %d ns loses to fastgm %d ns (%.3f×) and is not a listed exception", name, n, rdma, fast, ratio)
			case ex.why != "" && ratio > ex.ceiling:
				t.Errorf("%s (n=%d): rdmagm/fastgm = %.3f, above its pinned ceiling %.2f (%s)", name, n, ratio, ex.ceiling, ex.why)
			case ex.why != "" && ratio <= 1:
				t.Errorf("%s (n=%d): rdmagm now wins (%.3f×); delete its exception", name, n, ratio)
			}
		}
	}
	if judged != 8 {
		t.Errorf("judged %d application cells, want 8 (4 apps × 4 and 8 nodes)", judged)
	}
}

// TestProfilingDoesNotPerturbHomeBased extends the profiler's
// pure-observation invariant to the one-sided substrate and the
// home-based protocol: attaching the entity profiler to an rdmagm run
// must leave every timing and counter bit-identical, while the snapshot
// must carry the home-based page attribution (homes assigned, flush and
// fetch traffic broken out per page).
func TestProfilingDoesNotPerturbHomeBased(t *testing.T) {
	appsUnder := []apps.App{
		&apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond},
		&apps.FFT3D{Z: 8, Iters: 1, CostPerButterfly: 45 * sim.Nanosecond},
	}
	for _, app := range appsUnder {
		for _, n := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/%dp", app.Name(), n), func(t *testing.T) {
				plain, err := RunApp(app, n, tmk.TransportRDMAGM, nil)
				if err != nil {
					t.Fatal(err)
				}
				pf := prof.New()
				profiled, err := RunApp(app, n, tmk.TransportRDMAGM, func(cfg *tmk.Config) {
					cfg.Trace = profTracer(pf)
				})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Transport.OneSidedGets == 0 {
					t.Fatal("rdmagm default config did not run the home-based protocol (no Get verbs)")
				}
				snap := pf.Snapshot()
				if len(snap.Pages) == 0 {
					t.Fatal("profiler attached but recorded no pages")
				}
				var homed, fetched bool
				for _, pg := range snap.Pages {
					if pg.Home >= 0 {
						homed = true
					}
					if pg.HomeFetches > 0 || pg.HomeFlushes > 0 {
						fetched = true
					}
				}
				if !homed {
					t.Error("no page carries a home assignment")
				}
				if !fetched {
					t.Error("no page shows home flush/fetch traffic")
				}
				if plain.ExecTime != profiled.ExecTime {
					t.Errorf("ExecTime diverged: plain %v profiled %v", plain.ExecTime, profiled.ExecTime)
				}
				if plain.Stats != profiled.Stats {
					t.Errorf("tmk.Stats diverged:\nplain    %+v\nprofiled %+v", plain.Stats, profiled.Stats)
				}
				if plain.Transport != profiled.Transport {
					t.Errorf("substrate.Stats diverged:\nplain    %+v\nprofiled %+v", plain.Transport, profiled.Transport)
				}
				for i := range plain.PerProc {
					if plain.PerProc[i] != profiled.PerProc[i] {
						t.Errorf("rank %d time diverged: plain %v profiled %v", i, plain.PerProc[i], profiled.PerProc[i])
					}
				}
			})
		}
	}
}

// TestTracingDoesNotPerturbHomeBased is the tracing counterpart: a
// tracer attached to a home-based rdmagm run is pure observation.
func TestTracingDoesNotPerturbHomeBased(t *testing.T) {
	app := &apps.Jacobi{N: 64, Iters: 4, CostPerPoint: 30 * sim.Nanosecond}
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("%dp", n), func(t *testing.T) {
			plain, err := RunApp(app, n, tmk.TransportRDMAGM, nil)
			if err != nil {
				t.Fatal(err)
			}
			tracer := trace.New(1 << 12)
			traced, err := RunApp(app, n, tmk.TransportRDMAGM, func(cfg *tmk.Config) {
				cfg.Trace = tracer
			})
			if err != nil {
				t.Fatal(err)
			}
			if tracer.Len() == 0 {
				t.Fatal("tracer attached but recorded nothing")
			}
			if plain.ExecTime != traced.ExecTime {
				t.Errorf("ExecTime diverged: plain %v traced %v", plain.ExecTime, traced.ExecTime)
			}
			if plain.Stats != traced.Stats {
				t.Errorf("tmk.Stats diverged:\nplain  %+v\ntraced %+v", plain.Stats, traced.Stats)
			}
			if plain.Transport != traced.Transport {
				t.Errorf("substrate.Stats diverged:\nplain  %+v\ntraced %+v", plain.Transport, traced.Transport)
			}
			for i := range plain.PerProc {
				if plain.PerProc[i] != traced.PerProc[i] {
					t.Errorf("rank %d time diverged: plain %v traced %v", i, plain.PerProc[i], traced.PerProc[i])
				}
			}
		})
	}
}

// TestHomeBasedHomelessOverRDMA checks the decoupling of transport and
// protocol: rdmagm with HomeBased off runs the homeless protocol over
// the two-sided half and must also match fastgm bit-for-bit.
func TestHomeBasedHomelessOverRDMA(t *testing.T) {
	app := &apps.SOR{M: 64, N: 32, Iters: 3, Omega: 1.25, CostPerPoint: 35 * sim.Nanosecond}
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dp", n), func(t *testing.T) {
			ref, _ := captureFinalState(t, app, n, tmk.TransportFastGM, 1, false)
			got, res := captureFinalState(t, app, n, tmk.TransportRDMAGM, 1, false)
			for i := range ref {
				if !bytes.Equal(ref[i], got[i]) {
					t.Errorf("region %d contents diverged", i)
				}
			}
			if res.Transport.OneSidedPuts != 0 || res.Transport.OneSidedGets != 0 {
				t.Error("homeless run posted one-sided verbs")
			}
		})
	}
}

// TestHomeBasedMetadataIsFlat: home-based LRC keeps its protocol metadata
// flat in run length. An interval's diffs are gone once flushed to their
// homes — a home's own writes never make one — and every barrier drops the
// interval records of the epoch before last and all but the newest notice
// per writer up to it (tmk's endEpoch). Quadrupling Jacobi's iterations
// moves the metadata peak by at most 1/8 (measured: exactly flat).
func TestHomeBasedMetadataIsFlat(t *testing.T) {
	var hlrc []int64
	for _, iters := range []int{8, 16, 32} {
		app := &apps.Jacobi{N: 64, Iters: iters, CostPerPoint: 30 * sim.Nanosecond}
		res, err := VerifiedRun(app, 4, tmk.TransportRDMAGM, func(cfg *tmk.Config) { cfg.Seed = 1 })
		if err != nil {
			t.Fatalf("rdmagm iters=%d: %v", iters, err)
		}
		hlrc = append(hlrc, res.Stats.MetaBytesPeak)
	}
	t.Logf("rdmagm iters=8/16/32: peak %v", hlrc)
	if hlrc[2] > hlrc[0]*9/8 {
		t.Errorf("rdmagm: home-based metadata kept growing: %v over iters 8/16/32", hlrc)
	}
}
