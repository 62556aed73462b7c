package harness

import (
	"fmt"
	"io"

	"repro/internal/tmk"
	"repro/internal/trace"
)

// Critical-path attribution (DESIGN.md §13): rerun each application with
// the causal view subscribed to its trace and walk backward from run
// completion, attributing every nanosecond of end-to-end virtual time to
// a protocol category (compute / wire / gm / manager-indirection /
// straggler-wait). Collection is observation only — the headline numbers
// match an untraced run exactly — so the table answers the paper's
// cross-node questions (why does a lock chain or a barrier straggler
// dominate?) without perturbing what it measures.

// AllTransports lists every substrate, in paper order (baseline first,
// then the two GM-native designs).
var AllTransports = []tmk.TransportKind{
	tmk.TransportUDPGM, tmk.TransportFastGM, tmk.TransportRDMAGM,
}

// CriticalRow is one application × transport critical-path extraction.
type CriticalRow struct {
	App       string
	Transport tmk.TransportKind
	Edges     int // causal edges recorded
	Path      *trace.CriticalPath
}

// CriticalTable runs every application (smallest Table 1 size) on every
// transport over nodes processes and extracts each run's critical path.
func CriticalTable(nodes int) ([]CriticalRow, error) {
	var rows []CriticalRow
	for _, name := range AppNames {
		app := SizeLadder(name)[0]
		for _, kind := range AllTransports {
			tracer, cz := trace.New(1), trace.NewCausal()
			tracer.Subscribe(cz.Observe)
			if _, err := RunApp(app, nodes, kind, func(cfg *tmk.Config) {
				cfg.Trace = tracer
			}); err != nil {
				return nil, fmt.Errorf("critical %s %s: %w", name, kind, err)
			}
			rows = append(rows, CriticalRow{
				App: name, Transport: kind, Edges: cz.Len(), Path: cz.CriticalPath(),
			})
		}
	}
	return rows, nil
}

// PrintCritical renders the per-category attribution of every run, plus
// each run's heaviest path segments.
func PrintCritical(w io.Writer, nodes int, rows []CriticalRow) {
	fprintf(w, "Critical-path attribution — %d nodes, smallest Table 1 sizes\n", nodes)
	fprintf(w, "(per run: end-to-end virtual time split across causal categories; DESIGN.md §13)\n")
	for _, r := range rows {
		fprintf(w, "\n")
		header := fmt.Sprintf("%s — %s (%d causal edges)", r.App, r.Transport, r.Edges)
		trace.WriteCriticalPath(w, header, r.Path, 5)
	}
}
