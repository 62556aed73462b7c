package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Critical-path extraction (DESIGN.md §13): walk the causal DAG
// backward from run completion, alternating local segments (time a
// rank spent between receiving its enabling frame and acting) with
// edge segments (time a frame spent in flight), and attribute every
// nanosecond of end-to-end virtual time to a protocol category. The
// segments tile [0, endT] exactly, so the attributions sum to the
// end-to-end time with no residue.

// Critical-path categories.
const (
	CatCompute   = "compute"             // local time on the path
	CatWire      = "wire"                // request/reply frames in flight
	CatGM        = "gm"                  // one-sided verb + completion frames
	CatManager   = "manager-indirection" // forwarded requests (e.g. lock chase via the manager)
	CatStraggler = "straggler-wait"      // the barrier root's own work between the last arrival and the release it enables
)

// Categories lists every attribution category in report order.
var Categories = []string{CatCompute, CatWire, CatGM, CatManager, CatStraggler}

// EdgeCategory maps an edge kind to its attribution category.
func EdgeCategory(kind string) string {
	switch {
	case strings.HasPrefix(kind, "fwd:"):
		return CatManager
	case strings.HasPrefix(kind, "verb:"), strings.HasPrefix(kind, "comp:"):
		return CatGM
	default:
		return CatWire
	}
}

// PathSeg is one segment of the critical path. Local segments have
// From == To and an empty Kind; edge segments carry the edge kind.
type PathSeg struct {
	Cat   string
	Kind  string
	From  int
	To    int
	Start int64
	End   int64
}

// Dur returns the segment's duration.
func (s PathSeg) Dur() int64 { return s.End - s.Start }

// CriticalPath is the extracted path, in forward time order.
type CriticalPath struct {
	EndRank int
	EndT    int64
	Segs    []PathSeg
	ByCat   map[string]int64
}

// Total returns the summed duration of every segment. By construction
// the segments tile [0, EndT], so Total == EndT.
func (cp *CriticalPath) Total() int64 {
	var t int64
	for _, s := range cp.Segs {
		t += s.Dur()
	}
	return t
}

// CriticalPath walks backward from the latest recorded rank end time.
// At each point (rank, t) it follows the explicit causal parent of the
// edge just crossed when one was stamped, and otherwise the latest
// edge that arrived at the rank no later than t. Returns nil when the
// collector recorded no end marks.
func (c *Causal) CriticalPath() *CriticalPath {
	if len(c.ends) == 0 {
		return nil
	}
	endRank, endT := -1, int64(-1)
	for r, t := range c.ends {
		if t > endT || (t == endT && (endRank < 0 || r < endRank)) {
			endRank, endT = r, t
		}
	}

	// In-edges per rank, sorted by (RecvT, ID) for deterministic walks.
	in := make(map[int][]*CausalEdge)
	for i := range c.edges {
		e := &c.edges[i]
		if e.Arrived() {
			in[e.To] = append(in[e.To], e)
		}
	}
	for _, es := range in {
		sort.Slice(es, func(i, j int) bool {
			if es[i].RecvT != es[j].RecvT {
				return es[i].RecvT < es[j].RecvT
			}
			return es[i].ID < es[j].ID
		})
	}
	latestIn := func(rank int, t int64) *CausalEdge {
		es := in[rank]
		i := sort.Search(len(es), func(i int) bool { return es[i].RecvT > t })
		if i == 0 {
			return nil
		}
		return es[i-1]
	}

	cp := &CriticalPath{EndRank: endRank, EndT: endT, ByCat: make(map[string]int64)}
	add := func(s PathSeg) {
		if s.Dur() <= 0 {
			return
		}
		cp.Segs = append(cp.Segs, s)
		cp.ByCat[s.Cat] += s.Dur()
	}

	rank, t := endRank, endT
	var parent uint64 // explicit jump stamped on the edge just crossed
	lastKind := ""
	// Each crossed edge strictly decreases t (frames always take >0
	// virtual time), so the walk terminates; the cap is a hard backstop.
	for iter := 0; ; iter++ {
		var e *CausalEdge
		viaParent := false
		if parent != 0 {
			if pe := c.edge(parent); pe != nil && pe.Arrived() && pe.To == rank && pe.RecvT <= t {
				e = pe
				viaParent = true
			}
		}
		if e == nil {
			e = latestIn(rank, t)
			viaParent = parent != 0 && e != nil && e.ID == parent
		}
		// The local segment at the barrier root between receiving the
		// arrival the release's enabling-cause pointer singled out and
		// sending that release is the root's own post-arrival work (applying
		// the last intervals, building the releases; before the root closed
		// its interval on arrival, also encoding its diffs: 31.53 of
		// fft3d_fastgm_8's 280.01 ms). The straggler's lag itself, the local
		// segment that fed its arrive frame, is compute.
		localCat := CatCompute
		if viaParent && lastKind == "rep:barrier-release" && e != nil && e.Kind == "req:barrier-arrive" {
			localCat = CatStraggler
		}
		if e == nil || iter > len(c.edges)+1 {
			add(PathSeg{Cat: localCat, From: rank, To: rank, Start: 0, End: t})
			break
		}
		add(PathSeg{Cat: localCat, From: rank, To: rank, Start: e.RecvT, End: t})
		add(PathSeg{Cat: EdgeCategory(e.Kind), Kind: e.Kind, From: e.From, To: e.To,
			Start: e.SendT, End: e.RecvT})
		parent = e.Parent
		lastKind = e.Kind
		rank, t = e.From, e.SendT
	}
	// Built backward; present forward.
	for i, j := 0, len(cp.Segs)-1; i < j; i, j = i+1, j-1 {
		cp.Segs[i], cp.Segs[j] = cp.Segs[j], cp.Segs[i]
	}
	return cp
}

// WriteCriticalPath renders the per-category attribution and the
// heaviest path segments.
func WriteCriticalPath(w io.Writer, header string, cp *CriticalPath, topSegs int) error {
	if cp == nil {
		_, err := fmt.Fprintf(w, "%s: (no causal data)\n", header)
		return err
	}
	total := cp.Total()
	if _, err := fmt.Fprintf(w, "%s: end rank %d, end-to-end %.3fms over %d segments\n",
		header, cp.EndRank, float64(cp.EndT)/1e6, len(cp.Segs)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-20s %12s %7s\n", "category", "time(ms)", "share"); err != nil {
		return err
	}
	for _, cat := range Categories {
		ns := cp.ByCat[cat]
		if ns == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ns) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "  %-20s %12.3f %6.1f%%\n", cat, float64(ns)/1e6, pct); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-20s %12.3f %6.1f%%\n", "total", float64(total)/1e6, 100.0); err != nil {
		return err
	}
	if topSegs <= 0 {
		return nil
	}
	segs := make([]PathSeg, len(cp.Segs))
	copy(segs, cp.Segs)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Dur() > segs[j].Dur() })
	if topSegs > len(segs) {
		topSegs = len(segs)
	}
	if _, err := fmt.Fprintf(w, "  heaviest segments (%d of %d):\n", topSegs, len(segs)); err != nil {
		return err
	}
	for _, s := range segs[:topSegs] {
		kind := s.Kind
		if kind == "" {
			kind = "(local)"
		}
		if _, err := fmt.Fprintf(w, "    %-20s %-20s %2d->%-2d %12.3fms at %.3fms\n",
			s.Cat, kind, s.From, s.To, float64(s.Dur())/1e6, float64(s.Start)/1e6); err != nil {
			return err
		}
	}
	return nil
}
