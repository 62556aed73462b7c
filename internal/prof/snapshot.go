package prof

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// Schema identifies the JSON profile format emitted by WriteJSON.
const Schema = "tmk-prof/1"

// Profile is a deterministic, export-ready snapshot of a Profiler: every
// slice is sorted, so two snapshots of identical runs marshal to
// identical bytes. The meta fields (App … ExecNs) are filled by the
// caller, which knows what was run.
type Profile struct {
	Schema    string `json:"schema"`
	App       string `json:"app,omitempty"`
	Size      string `json:"size,omitempty"`
	Transport string `json:"transport,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	ExecNs    int64  `json:"exec_ns,omitempty"`

	MaxEpoch int32 `json:"max_epoch"`

	Pages      []PageRow    `json:"pages"`
	Locks      []LockRow    `json:"locks"`
	Barriers   []BarrierRow `json:"barriers"`
	Episodes   []EpisodeRow `json:"episodes"`
	PageEpochs []CellRow    `json:"page_epochs"`
	LockEpochs []CellRow    `json:"lock_epochs"`
}

// PageRow is one page's attribution in a Profile.
type PageRow struct {
	ID                int32 `json:"id"`
	Region            int32 `json:"region"`
	ReadFaults        int64 `json:"read_faults"`
	WriteFaults       int64 `json:"write_faults"`
	FaultNs           int64 `json:"fault_ns"` // virtual time spent in faults on this page
	Fetches           int64 `json:"fetches"`  // full-page fetches
	FetchBytes        int64 `json:"fetch_bytes"`
	DiffFetches       int64 `json:"diff_fetches"` // diff requests issued for this page
	DiffBytesFetched  int64 `json:"diff_bytes_fetched"`
	DiffsCreated      int64 `json:"diffs_created"`
	DiffBytesCreated  int64 `json:"diff_bytes_created"`
	Invalidations     int64 `json:"invalidations"`       // notices that invalidated a valid copy
	Notices           int64 `json:"notices"`             // write notices received for this page
	FalseShareNotices int64 `json:"false_share_notices"` // notices from a peer while this rank also wrote
	Writers           int   `json:"writers"`             // distinct ranks seen writing the page

	// FalseSharingScore is the fraction of received write notices that hit
	// a page the receiving rank itself writes — the multiple-writer
	// protocol's signature of false sharing. Zero for single-writer pages.
	FalseSharingScore float64 `json:"false_sharing_score"`

	// Home-based LRC attribution: the page's home rank (-1 on homeless
	// runs) and the one-sided traffic it attracted.
	Home           int   `json:"home"`
	HomeFlushes    int64 `json:"home_flushes,omitempty"`
	HomeFlushBytes int64 `json:"home_flush_bytes,omitempty"`
	HomeFetches    int64 `json:"home_fetches,omitempty"`
	HomeFetchBytes int64 `json:"home_fetch_bytes,omitempty"`
}

// LockRow is one lock's attribution in a Profile.
type LockRow struct {
	ID             int32 `json:"id"`
	Manager        int   `json:"manager"`         // statically assigned manager rank
	AcquiresLocal  int64 `json:"acquires_local"`  // token already here: free re-acquire
	AcquiresRemote int64 `json:"acquires_remote"` // grant had to travel
	WaitNs         int64 `json:"wait_ns"`         // summed remote-acquire latency
	Holds          int64 `json:"holds"`           // completed acquire→release pairs
	HoldNs         int64 `json:"hold_ns"`         // summed acquire→release time
	Handoffs       int64 `json:"handoffs"`        // acquires where the token changed rank
	Forwards       int64 `json:"forwards"`        // manager indirections (3-message acquires)

	// IndirectionRate is the fraction of remote acquires the manager had
	// to forward down the chain (the microbenchmark's "indirect" case).
	IndirectionRate float64 `json:"indirection_rate"`
}

// BarrierRow is one barrier id's attribution, with skew statistics
// derived over its episodes.
type BarrierRow struct {
	ID          int32 `json:"id"`
	Episodes    int64 `json:"episodes"`
	WaitNs      int64 `json:"wait_ns"`
	SkewMaxNs   int64 `json:"skew_max_ns"`
	SkewMeanNs  int64 `json:"skew_mean_ns"`
	Intervals   int64 `json:"intervals"`
	NoticePages int64 `json:"notice_pages"`
}

// EpisodeRow is one (barrier, episode) arrival record: the per-phase
// resolution behind the barrier skew aggregates.
type EpisodeRow struct {
	Barrier  int32 `json:"barrier"`
	Episode  int32 `json:"episode"`
	Arrivals int   `json:"arrivals"`
	StartNs  int64 `json:"start_ns"` // earliest arrival
	SkewNs   int64 `json:"skew_ns"`  // latest − earliest arrival
}

// CellRow is one (entity, epoch) heatmap cell.
type CellRow struct {
	ID     int32 `json:"id"`
	Epoch  int32 `json:"epoch"`
	Events int64 `json:"events"`
	Ns     int64 `json:"ns"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// Snapshot returns a sorted copy of the profiler's rows as a Profile and
// derives the ratios and barrier skews on the copy. The profiler keeps
// accumulating; snapshotting is non-destructive.
func (p *Profiler) Snapshot() *Profile {
	pr := &Profile{
		Schema:   Schema,
		Pages:    rows(nil, p.pages, func(a, b PageRow) int { return cmp.Compare(a.ID, b.ID) }),
		Locks:    rows(nil, p.locks, func(a, b LockRow) int { return cmp.Compare(a.ID, b.ID) }),
		Barriers: rows(nil, p.barriers, func(a, b BarrierRow) int { return cmp.Compare(a.ID, b.ID) }),
		Episodes: rows(nil, p.episodes, func(a, b EpisodeRow) int {
			return cmp.Or(cmp.Compare(a.Episode, b.Episode), cmp.Compare(a.Barrier, b.Barrier))
		}),
		// The heatmaps marshal as [] rather than null when empty.
		PageEpochs: rows([]CellRow{}, p.pageEpochs, byCell),
		LockEpochs: rows([]CellRow{}, p.lockEpochs, byCell),
	}
	for _, e := range p.epochs {
		pr.MaxEpoch = max(pr.MaxEpoch, e)
	}

	for i := range pr.Pages {
		if r := &pr.Pages[i]; r.Notices > 0 && r.Writers >= 2 {
			r.FalseSharingScore = float64(r.FalseShareNotices) / float64(r.Notices)
		}
	}
	for i := range pr.Locks {
		if r := &pr.Locks[i]; r.AcquiresRemote > 0 {
			r.IndirectionRate = float64(r.Forwards) / float64(r.AcquiresRemote)
		}
	}
	// A barrier's skew statistics range over its episodes.
	byID := make(map[int32]*BarrierRow, len(pr.Barriers))
	for i := range pr.Barriers {
		byID[pr.Barriers[i].ID] = &pr.Barriers[i]
	}
	for _, er := range pr.Episodes {
		if r := byID[er.Barrier]; r != nil {
			r.Episodes++
			r.SkewMaxNs = max(r.SkewMaxNs, er.SkewNs)
			r.SkewMeanNs += er.SkewNs // a sum until the loop below
		}
	}
	for _, r := range byID {
		if r.Episodes > 0 {
			r.SkewMeanNs /= r.Episodes
		}
	}
	return pr
}

func byCell(a, b CellRow) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Epoch, b.Epoch))
}

// rows appends a copy of every row of m to dst and sorts dst by order.
func rows[K comparable, R any](dst []R, m map[K]*R, order func(a, b R) int) []R {
	for _, r := range m {
		dst = append(dst, *r)
	}
	slices.SortFunc(dst, order)
	return dst
}

// top returns up to k of rs, most significant first by order.
func top[R any](rs []R, k int, order func(a, b R) int) []R {
	rs = slices.SortedFunc(slices.Values(rs), order)
	return rs[:min(k, len(rs))]
}

// WriteJSON emits the profile as indented JSON (schema "tmk-prof/1",
// documented in DESIGN.md §8). Byte-deterministic for identical runs.
func (pr *Profile) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// TopPages returns up to k pages ordered hottest-first: by fault time,
// then fetched bytes, then id.
func (pr *Profile) TopPages(k int) []PageRow {
	return top(pr.Pages, k, func(a, b PageRow) int {
		return cmp.Or(cmp.Compare(b.FaultNs, a.FaultNs),
			cmp.Compare(b.FetchBytes+b.DiffBytesFetched, a.FetchBytes+a.DiffBytesFetched),
			cmp.Compare(a.ID, b.ID))
	})
}

// TopLocks returns up to k locks ordered most-contended-first: by wait
// time, then remote acquires, then id.
func (pr *Profile) TopLocks(k int) []LockRow {
	return top(pr.Locks, k, func(a, b LockRow) int {
		return cmp.Or(cmp.Compare(b.WaitNs, a.WaitNs),
			cmp.Compare(b.AcquiresRemote, a.AcquiresRemote), cmp.Compare(a.ID, b.ID))
	})
}

// WorstBarriers returns up to k barriers ordered by worst arrival skew,
// then wait time, then id.
func (pr *Profile) WorstBarriers(k int) []BarrierRow {
	return top(pr.Barriers, k, func(a, b BarrierRow) int {
		return cmp.Or(cmp.Compare(b.SkewMaxNs, a.SkewMaxNs),
			cmp.Compare(b.WaitNs, a.WaitNs), cmp.Compare(a.ID, b.ID))
	})
}
