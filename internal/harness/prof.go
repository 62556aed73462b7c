package harness

import (
	"io"
	"os"

	"repro/internal/prof"
	"repro/internal/tmk"
)

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
