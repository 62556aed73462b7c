package prof

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/trace"
)

// printer is a writer that keeps its first error and skips every later
// write.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// WriteTables renders the top-N entity tables as plain text: hottest
// pages by fault time, most-contended locks by wait time, and barriers
// by worst arrival skew. Deterministic for identical runs.
func (pr *Profile) WriteTables(w io.Writer, pages, locks, barriers int) error {
	p := &printer{w: w}
	if pr.App != "" {
		p.printf("profile: %s/%s nodes=%d transport=%s exec=%.3fms epochs=%d\n",
			pr.App, pr.Size, pr.Nodes, pr.Transport, float64(pr.ExecNs)/1e6, pr.MaxEpoch)
	}

	p.printf("  top pages by fault time (%d of %d):\n", min(pages, len(pr.Pages)), len(pr.Pages))
	if len(pr.Pages) > 0 {
		p.printf("  %6s %6s %7s %7s %12s %9s %11s %8s %7s %6s\n",
			"page", "region", "rd-flt", "wr-flt", "fault(ms)", "fetch(B)", "diffs(B)", "notices", "writers", "fss")
		for _, r := range pr.TopPages(pages) {
			p.printf("  %6d %6d %7d %7d %12.3f %9d %11d %8d %7d %6.2f\n",
				r.ID, r.Region, r.ReadFaults, r.WriteFaults, float64(r.FaultNs)/1e6,
				r.FetchBytes, r.DiffBytesFetched, r.Notices, r.Writers, r.FalseSharingScore)
		}
	}

	if len(pr.Locks) == 0 {
		p.printf("  locks: (no locks)\n")
	} else {
		p.printf("  top locks by wait time (%d of %d):\n", min(locks, len(pr.Locks)), len(pr.Locks))
		p.printf("  %6s %4s %7s %7s %12s %12s %9s %9s %9s\n",
			"lock", "mgr", "local", "remote", "wait(ms)", "hold(ms)", "handoffs", "forwards", "indirect")
		for _, r := range pr.TopLocks(locks) {
			p.printf("  %6d %4d %7d %7d %12.3f %12.3f %9d %9d %9.2f\n",
				r.ID, r.Manager, r.AcquiresLocal, r.AcquiresRemote,
				float64(r.WaitNs)/1e6, float64(r.HoldNs)/1e6,
				r.Handoffs, r.Forwards, r.IndirectionRate)
		}
	}

	if len(pr.Barriers) == 0 {
		p.printf("  barriers: (no barriers)\n")
		return p.err
	}
	p.printf("  barriers by arrival skew (%d of %d):\n", min(barriers, len(pr.Barriers)), len(pr.Barriers))
	p.printf("  %6s %9s %13s %13s %12s %10s %9s\n",
		"bar", "episodes", "skew-max(ms)", "skew-avg(ms)", "wait(ms)", "intervals", "wn-pages")
	for _, r := range pr.WorstBarriers(barriers) {
		id := strconv.Itoa(int(r.ID))
		if r.ID == trace.FinalBarrier {
			id = "final" // its id is wider than the column
		}
		p.printf("  %6s %9d %13.3f %13.3f %12.3f %10d %9d\n",
			id, r.Episodes, float64(r.SkewMaxNs)/1e6, float64(r.SkewMeanNs)/1e6,
			float64(r.WaitNs)/1e6, r.Intervals, r.NoticePages)
	}
	return p.err
}

// heatRamp maps increasing intensity to denser glyphs; index 0 is "no
// activity at all" and is rendered distinct from "tiny activity".
const heatRamp = " .:-=+*#%@"

// maxHeatCols caps heatmap width; longer runs bucket several epochs per
// column so SOR's hundreds of iterations still fit a terminal.
const maxHeatCols = 48

// WriteHeatmap renders a page×epoch activity heatmap (cell intensity =
// fault-time share, normalised to the hottest cell) for the top `pages`
// pages. Epochs beyond maxHeatCols are bucketed evenly per column.
func (pr *Profile) WriteHeatmap(w io.Writer, pages int) error {
	if len(pr.PageEpochs) == 0 {
		_, err := fmt.Fprintf(w, "  heatmap: (no page activity)\n")
		return err
	}
	hot := pr.TopPages(pages)
	keep := make(map[int32]int, len(hot))
	for i, r := range hot {
		keep[r.ID] = i
	}

	nEpochs := int(pr.MaxEpoch) + 1
	cols := nEpochs
	per := 1
	if cols > maxHeatCols {
		per = (nEpochs + maxHeatCols - 1) / maxHeatCols
		cols = (nEpochs + per - 1) / per
	}

	grid := make([][]int64, len(hot))
	for i := range grid {
		grid[i] = make([]int64, cols)
	}
	var peak int64
	for _, c := range pr.PageEpochs {
		i, ok := keep[c.ID]
		if !ok || int(c.Epoch) >= nEpochs {
			continue
		}
		col := int(c.Epoch) / per
		grid[i][col] += c.Ns
		peak = max(peak, grid[i][col])
	}
	p := &printer{w: w}
	p.printf("  page x epoch heatmap (fault time, %d epochs", nEpochs)
	if per > 1 {
		p.printf(", %d per column", per)
	}
	p.printf("):\n")
	for i, r := range hot {
		line := make([]byte, cols)
		for j, v := range grid[i] {
			line[j] = heatGlyph(v, peak)
		}
		p.printf("  %6d |%s|\n", r.ID, line)
	}
	return p.err
}

// heatGlyph picks the ramp glyph for value v against the grid peak:
// blank only for exactly zero, lightest glyph for any activity.
func heatGlyph(v, peak int64) byte {
	if v <= 0 || peak <= 0 {
		return heatRamp[0]
	}
	idx := 1 + int(v*int64(len(heatRamp)-2)/peak)
	if idx >= len(heatRamp) {
		idx = len(heatRamp) - 1
	}
	return heatRamp[idx]
}
