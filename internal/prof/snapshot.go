package prof

import (
	"encoding/json"
	"io"
	"sort"
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
	ID                int32   `json:"id"`
	Region            int32   `json:"region"`
	ReadFaults        int64   `json:"read_faults"`
	WriteFaults       int64   `json:"write_faults"`
	FaultNs           int64   `json:"fault_ns"`
	Fetches           int64   `json:"fetches"`
	FetchBytes        int64   `json:"fetch_bytes"`
	DiffFetches       int64   `json:"diff_fetches"`
	DiffBytesFetched  int64   `json:"diff_bytes_fetched"`
	DiffsCreated      int64   `json:"diffs_created"`
	DiffBytesCreated  int64   `json:"diff_bytes_created"`
	Invalidations     int64   `json:"invalidations"`
	Notices           int64   `json:"notices"`
	FalseShareNotices int64   `json:"false_share_notices"`
	Writers           int     `json:"writers"`
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
	ID              int32   `json:"id"`
	Manager         int     `json:"manager"`
	AcquiresLocal   int64   `json:"acquires_local"`
	AcquiresRemote  int64   `json:"acquires_remote"`
	WaitNs          int64   `json:"wait_ns"`
	Holds           int64   `json:"holds"`
	HoldNs          int64   `json:"hold_ns"`
	Handoffs        int64   `json:"handoffs"`
	Forwards        int64   `json:"forwards"`
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

// Snapshot renders the profiler's state as a Profile. The profiler keeps
// accumulating; snapshotting is non-destructive.
func (p *Profiler) Snapshot() *Profile {
	pr := &Profile{Schema: Schema}

	for _, e := range p.epochs {
		if e > pr.MaxEpoch {
			pr.MaxEpoch = e
		}
	}

	for _, ps := range p.pages {
		pr.Pages = append(pr.Pages, PageRow{
			ID: ps.ID, Region: ps.Region,
			ReadFaults: ps.ReadFaults, WriteFaults: ps.WriteFaults, FaultNs: ps.FaultNs,
			Fetches: ps.Fetches, FetchBytes: ps.FetchBytes,
			DiffFetches: ps.DiffFetches, DiffBytesFetched: ps.DiffBytesFetched,
			DiffsCreated: ps.DiffsCreated, DiffBytesCreated: ps.DiffBytesCreated,
			Invalidations: ps.Invalidations, Notices: ps.Notices,
			FalseShareNotices: ps.FalseShareNotices,
			Writers:           ps.Writers(), FalseSharingScore: ps.FalseSharingScore(),
			Home:           ps.Home,
			HomeFlushes:    ps.HomeFlushes,
			HomeFlushBytes: ps.HomeFlushBytes,
			HomeFetches:    ps.HomeFetches,
			HomeFetchBytes: ps.HomeFetchBytes,
		})
	}
	sort.Slice(pr.Pages, func(i, j int) bool { return pr.Pages[i].ID < pr.Pages[j].ID })

	for _, ls := range p.locks {
		pr.Locks = append(pr.Locks, LockRow{
			ID: ls.ID, Manager: ls.Manager,
			AcquiresLocal: ls.AcquiresLocal, AcquiresRemote: ls.AcquiresRemote,
			WaitNs: ls.WaitNs, Holds: ls.Holds, HoldNs: ls.HoldNs,
			Handoffs: ls.Handoffs, Forwards: ls.Forwards,
			IndirectionRate: ls.IndirectionRate(),
		})
	}
	sort.Slice(pr.Locks, func(i, j int) bool { return pr.Locks[i].ID < pr.Locks[j].ID })

	for _, ea := range p.episodes {
		pr.Episodes = append(pr.Episodes, EpisodeRow{
			Barrier: ea.barrier, Episode: ea.episode, Arrivals: ea.arrivals,
			StartNs: ea.minArrive, SkewNs: ea.maxArrive - ea.minArrive,
		})
	}
	sort.Slice(pr.Episodes, func(i, j int) bool {
		if pr.Episodes[i].Episode != pr.Episodes[j].Episode {
			return pr.Episodes[i].Episode < pr.Episodes[j].Episode
		}
		return pr.Episodes[i].Barrier < pr.Episodes[j].Barrier
	})

	// Barrier rows: online aggregates + skew derived from episodes.
	type skewAgg struct {
		n   int64
		sum int64
		max int64
	}
	skews := make(map[int32]*skewAgg)
	for _, er := range pr.Episodes {
		sa := skews[er.Barrier]
		if sa == nil {
			sa = &skewAgg{}
			skews[er.Barrier] = sa
		}
		sa.n++
		sa.sum += er.SkewNs
		if er.SkewNs > sa.max {
			sa.max = er.SkewNs
		}
	}
	for id, ba := range p.barriers {
		row := BarrierRow{ID: id, WaitNs: ba.waitNs, Intervals: ba.intervals, NoticePages: ba.noticePages}
		if sa := skews[id]; sa != nil {
			row.Episodes = sa.n
			row.SkewMaxNs = sa.max
			row.SkewMeanNs = sa.sum / sa.n
		}
		pr.Barriers = append(pr.Barriers, row)
	}
	sort.Slice(pr.Barriers, func(i, j int) bool { return pr.Barriers[i].ID < pr.Barriers[j].ID })

	pr.PageEpochs = cellRows(p.pageEpochs)
	pr.LockEpochs = cellRows(p.lockEpochs)
	return pr
}

func cellRows(m map[cellKey]*Cell) []CellRow {
	rows := make([]CellRow, 0, len(m))
	for k, c := range m {
		rows = append(rows, CellRow{ID: k.id, Epoch: k.epoch, Events: c.Events, Ns: c.Ns, Bytes: c.Bytes})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ID != rows[j].ID {
			return rows[i].ID < rows[j].ID
		}
		return rows[i].Epoch < rows[j].Epoch
	})
	return rows
}

// WriteJSON emits the profile as indented JSON (schema "tmk-prof/1",
// documented in DESIGN.md §8). Byte-deterministic for identical runs.
func (pr *Profile) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// TopPages returns up to k pages ordered hottest-first: by fault time,
// then fetched bytes, then id.
func (pr *Profile) TopPages(k int) []PageRow {
	rows := append([]PageRow(nil), pr.Pages...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.FaultNs != b.FaultNs {
			return a.FaultNs > b.FaultNs
		}
		ab, bb := a.FetchBytes+a.DiffBytesFetched, b.FetchBytes+b.DiffBytesFetched
		if ab != bb {
			return ab > bb
		}
		return a.ID < b.ID
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TopLocks returns up to k locks ordered most-contended-first: by wait
// time, then remote acquires, then id.
func (pr *Profile) TopLocks(k int) []LockRow {
	rows := append([]LockRow(nil), pr.Locks...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.WaitNs != b.WaitNs {
			return a.WaitNs > b.WaitNs
		}
		if a.AcquiresRemote != b.AcquiresRemote {
			return a.AcquiresRemote > b.AcquiresRemote
		}
		return a.ID < b.ID
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// WorstBarriers returns up to k barriers ordered by worst arrival skew,
// then wait time, then id.
func (pr *Profile) WorstBarriers(k int) []BarrierRow {
	rows := append([]BarrierRow(nil), pr.Barriers...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.SkewMaxNs != b.SkewMaxNs {
			return a.SkewMaxNs > b.SkewMaxNs
		}
		if a.WaitNs != b.WaitNs {
			return a.WaitNs > b.WaitNs
		}
		return a.ID < b.ID
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}
