package harness

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/prof"
	"repro/internal/tmk"
)

// Protocol-entity profiles (tentpole of the profiling subsystem): rerun
// the paper's applications with the entity profiler attached and report
// which pages, locks, and barriers the DSM time actually went to,
// per inter-barrier epoch. Profiling is observation only, so execution
// times match the unprofiled tables exactly (see
// TestProfilingDoesNotPerturbResults).

// ProfRun is one application's entity profile on one transport.
type ProfRun struct {
	App       string
	Size      string
	Transport tmk.TransportKind
	Nodes     int
	Profile   *prof.Profile
}

// ProfEntities runs every paper application on both transports with the
// profiler attached. small selects the smallest Table 1 rung instead of
// the default sizes (fast smoke-test mode).
func ProfEntities(nodes int, small bool) ([]ProfRun, error) {
	var out []ProfRun
	for _, name := range AppNames {
		app := apps.ByName(name)
		if small {
			app = SizeLadder(name)[0]
		}
		for _, kind := range Transports {
			pf := prof.New()
			res, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) { cfg.Prof = pf })
			if err != nil {
				return nil, fmt.Errorf("prof %s %s: %w", name, kind, err)
			}
			out = append(out, ProfRun{
				App: app.Name(), Size: app.Size(), Transport: kind, Nodes: nodes,
				Profile: LabelProfile(pf, app.Name(), app.Size(), kind, nodes, res),
			})
		}
	}
	return out, nil
}

// LabelProfile snapshots pf and labels the profile with the run it watched.
func LabelProfile(pf *prof.Profiler, app, size string, kind tmk.TransportKind, nodes int, res *tmk.Result) *prof.Profile {
	pr := pf.Snapshot()
	pr.App, pr.Size, pr.Transport, pr.Nodes, pr.ExecNs = app, size, string(kind), nodes, int64(res.ExecTime)
	return pr
}

// WriteProfileReport is tmkrun's and tmktrace's -prof report: a blank line,
// the entity tables (top 10 pages, 5 locks, 5 barriers), the heatmap and, if
// jsonPath is set, the tmk-prof/1 JSON written there, announced after prefix.
func WriteProfileReport(w io.Writer, pr *prof.Profile, jsonPath, prefix string) error {
	fprintf(w, "\n")
	if err := pr.WriteTables(w, 10, 5, 5); err != nil {
		return err
	}
	if err := pr.WriteHeatmap(w, 10); err != nil || jsonPath == "" {
		return err
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := pr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fprintf(w, "%swrote entity profile to %s\n", prefix, jsonPath)
	return nil
}

// PrintProfEntities renders the per-entity tables and page×epoch
// heatmaps: top-5 pages, top-3 locks, top-3 barriers per run.
func PrintProfEntities(w io.Writer, runs []ProfRun) {
	fprintf(w, "Eprof — protocol-entity attribution (profiled rerun)\n")
	for _, r := range runs {
		fprintf(w, "\n")
		r.Profile.WriteTables(w, 5, 3, 3)
		r.Profile.WriteHeatmap(w, 5)
	}
}

// ProfChurnRun is one churned run's membership cost on one substrate.
type ProfChurnRun struct {
	App       string
	Transport tmk.TransportKind
	Nodes     int
	ExecNs    int64 // churned execution time
	BaseNs    int64 // zero-churn execution time, same seed
	Stats     tmk.Stats
}

// ProfChurn runs the default churn schedule on every substrate and
// captures the membership counters next to the zero-churn baseline, so
// handoff and re-placement cost shows up in the prof tables; BenchChurn
// pins the same pairs. Both sides are plain runs, so the difference is
// membership's alone — the churn sweep and TestFeatureMatrix verify the
// churned configuration.
func ProfChurn() ([]ProfChurnRun, error) {
	spec := DefaultChurnSpec(4)
	app := chaosApps()[0]
	var out []ProfChurnRun
	for _, kind := range AllTransports {
		churned, err := RunApp(app, spec.Nodes, kind, spec.Mutate)
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", kind, err)
		}
		base, err := RunApp(app, spec.Nodes, kind, func(cfg *tmk.Config) { cfg.Seed = spec.Seed })
		if err != nil {
			return nil, err
		}
		out = append(out, ProfChurnRun{
			App: app.Name(), Transport: kind, Nodes: spec.Nodes,
			ExecNs: int64(churned.ExecTime), BaseNs: int64(base.ExecTime),
			Stats: churned.Stats,
		})
	}
	return out, nil
}

// PrintProfChurn renders the membership-churn counter table: events
// executed, handoffs by entity kind, handoff bytes copied, diffs
// replayed into rebuilt homes, and the runtime cost over the zero-churn
// baseline.
func PrintProfChurn(w io.Writer, runs []ProfChurnRun) {
	fprintf(w, "Membership churn — handoff/re-placement counters (default schedule)\n")
	fprintf(w, "%-8s %-7s %12s %8s %6s %6s %6s %6s %6s %6s %8s %7s\n",
		"app", "tport", "time", "vs base", "joins", "leaves", "crash", "recov", "hlock", "hpage", "hbytes", "replay")
	for _, r := range runs {
		over := "-"
		if r.BaseNs > 0 {
			over = fmt.Sprintf("%+.1f%%", 100*float64(r.ExecNs-r.BaseNs)/float64(r.BaseNs))
		}
		st := r.Stats
		fprintf(w, "%-8s %-7s %12d %8s %6d %6d %6d %6d %6d %6d %8d %7d\n",
			r.App, r.Transport, r.ExecNs, over,
			st.MemberJoins, st.MemberLeaves, st.MemberCrashes, st.MemberPartialRecoveries,
			st.MemberHandoffLocks, st.MemberHandoffPages, st.MemberHandoffBytes, st.MemberDiffsReplayed)
	}
}
