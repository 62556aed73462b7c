package harness

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
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
// profiler subscribed to the run's tracer. small selects the smallest
// Table 1 rung instead of the default sizes (fast smoke-test mode).
func ProfEntities(nodes int, small bool) ([]ProfRun, error) {
	var out []ProfRun
	for _, name := range AppNames {
		app := apps.ByName(name)
		if small {
			app = SizeLadder(name)[0]
		}
		for _, kind := range Transports {
			pf := prof.New()
			res, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) { cfg.Trace = profTracer(pf) })
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

// profTracer returns a tracer with pf subscribed: how a run is profiled.
func profTracer(pf *prof.Profiler) *trace.Tracer {
	tr := trace.New(0)
	tr.Subscribe(pf.Observe)
	return tr
}

// LabelProfile snapshots pf and labels the profile with the run it watched.
func LabelProfile(pf *prof.Profiler, app, size string, kind tmk.TransportKind, nodes int, res *tmk.Result) *prof.Profile {
	pr := pf.Snapshot()
	pr.App, pr.Size, pr.Transport, pr.Nodes, pr.ExecNs = app, size, string(kind), nodes, int64(res.ExecTime)
	return pr
}

// WriteProfileReport is tmkrun's -prof report: a blank line, the entity
// tables (top 10 pages, 5 locks, 5 barriers), the heatmap and, if jsonPath
// is set, the tmk-prof/1 JSON written there and announced on one line.
func WriteProfileReport(w io.Writer, pr *prof.Profile, jsonPath string) error {
	fprintf(w, "\n")
	if err := pr.WriteTables(w, 10, 5, 5); err != nil {
		return err
	}
	if err := pr.WriteHeatmap(w, 10); err != nil || jsonPath == "" {
		return err
	}
	if err := WriteFile(jsonPath, pr.WriteJSON); err != nil {
		return err
	}
	fprintf(w, "  wrote entity profile to %s\n", jsonPath)
	return nil
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
