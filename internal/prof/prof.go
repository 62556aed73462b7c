// Package prof is the protocol-entity profiler of the simulator: where
// internal/trace attributes virtual time to *layers* ("time went to
// tmk"), prof attributes it to the individual protocol *entities* —
// which shared page, which lock, which barrier — and segments the
// attribution into epochs (inter-barrier phases) so the heatmaps show
// how hotness shifts over a run. This is the classic SDSM diagnosis
// toolkit: per-page fault/fetch/diff accounting with a false-sharing
// score from multi-writer notices, per-lock wait-vs-hold and
// manager-indirection rates, per-barrier arrival skew per episode.
//
// The profiler reduces trace.Event: it is one subscriber of a run's
// tracer (Tracer.Subscribe(p.Observe)), reading the protocol identity
// layer tmk puts on each event, and knows nothing about the simulator or
// the protocol's code. Times are raw virtual nanoseconds (int64), and
// recording never charges virtual time — a profiled run is bit-identical
// to an unprofiled one (enforced by TestProfilingDoesNotPerturbResults in
// internal/harness).
package prof

import "repro/internal/trace"

// Profiler accumulates per-entity attribution for one DSM run straight
// into the rows a Profile reports. It is single-threaded by construction,
// like the simulator it observes; subscribe one per run to the run's
// tracer.
type Profiler struct {
	epochs []int32 // per-rank epoch = barriers crossed so far

	pages    map[int32]*PageRow
	writers  map[writerKey]bool // (page, rank) pairs seen writing: PageRow.Writers
	locks    map[int32]*LockRow
	barriers map[int32]*BarrierRow
	episodes map[episodeKey]*EpisodeRow

	pageEpochs map[cellKey]*CellRow
	lockEpochs map[cellKey]*CellRow

	heldSince  map[holderKey]int64 // acquire-completion time per (rank, lock)
	lastHolder map[int32]int       // previous holder per lock, for handoff counts
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{
		pages:      make(map[int32]*PageRow),
		writers:    make(map[writerKey]bool),
		locks:      make(map[int32]*LockRow),
		barriers:   make(map[int32]*BarrierRow),
		episodes:   make(map[episodeKey]*EpisodeRow),
		pageEpochs: make(map[cellKey]*CellRow),
		lockEpochs: make(map[cellKey]*CellRow),
		heldSince:  make(map[holderKey]int64),
		lastHolder: make(map[int32]int),
	}
}

type writerKey struct {
	page int32
	rank int
}
type episodeKey struct{ barrier, episode int32 }
type cellKey struct{ id, epoch int32 }
type holderKey struct {
	rank int
	lock int32
}

// row returns m's row for k, adding a copy of fresh on first sight (a
// new(R) only then, so a repeat event allocates nothing).
func row[K comparable, R any](m map[K]*R, k K, fresh R) *R {
	r := m[k]
	if r == nil {
		r = new(R)
		*r = fresh
		m[k] = r
	}
	return r
}

// epochOf returns rank's current epoch, growing the table on demand.
func (p *Profiler) epochOf(rank int) int32 {
	for len(p.epochs) <= rank {
		p.epochs = append(p.epochs, 0)
	}
	return p.epochs[rank]
}

func (p *Profiler) page(id, region int32) *PageRow {
	return row(p.pages, id, PageRow{ID: id, Region: region, Home: -1})
}

// wrote records rank as a writer of page pr.
func (p *Profiler) wrote(pr *PageRow, rank int) {
	if k := (writerKey{page: pr.ID, rank: rank}); !p.writers[k] {
		p.writers[k] = true
		pr.Writers++
	}
}

func (p *Profiler) lock(id int32, manager int) *LockRow {
	lr := row(p.locks, id, LockRow{ID: id, Manager: manager})
	if manager >= 0 {
		lr.Manager = manager
	}
	return lr
}

// cell returns rank's current-epoch heatmap cell of entity id in m.
func (p *Profiler) cell(m map[cellKey]*CellRow, id int32, rank int) *CellRow {
	epoch := p.epochOf(rank)
	return row(m, cellKey{id: id, epoch: epoch}, CellRow{ID: id, Epoch: epoch})
}

// Observe reduces one event of the trace stream into its entity's
// attribution; subscribe it to a run's tracer (Tracer.Subscribe). Times
// are raw virtual nanoseconds and a span ends at T+Dur. Only layer tmk's
// events name entities; of those the profiler ignores diff-apply and
// lock-grant (the fetch and the acquire they serve carry the cost) and the
// watchdog's crash-detected.
func (p *Profiler) Observe(e trace.Event) {
	if e.Layer != trace.LayerTMK {
		return
	}
	at := e.T + e.Dur
	switch e.Kind {
	case trace.KindReadFault, trace.KindWriteFault:
		pr := p.page(e.ID, e.Region)
		if e.Kind == trace.KindReadFault {
			pr.ReadFaults++
		} else {
			pr.WriteFaults++
			p.wrote(pr, e.Rank)
		}
		pr.FaultNs += e.Dur
		c := p.cell(p.pageEpochs, e.ID, e.Rank)
		c.Events++
		c.Ns += e.Dur
	case trace.KindDiffFetch:
		pr := p.page(e.ID, e.Region)
		pr.DiffFetches++
		pr.DiffBytesFetched += int64(e.Bytes)
		p.cell(p.pageEpochs, e.ID, e.Rank).Bytes += int64(e.Bytes)
	case trace.KindDiffCreate:
		pr := p.page(e.ID, e.Region)
		pr.DiffsCreated++
		pr.DiffBytesCreated += int64(e.Bytes)
		p.wrote(pr, e.Rank)
	case trace.KindHomeFlush:
		pr := p.page(e.ID, e.Region)
		pr.Home = e.Peer
		pr.HomeFlushes++
		pr.HomeFlushBytes += int64(e.Bytes)
		p.wrote(pr, e.Rank)
		p.cell(p.pageEpochs, e.ID, e.Rank).Bytes += int64(e.Bytes)
	case trace.KindHomeFetch: // a full-page fetch, from the home
		pr := p.page(e.ID, e.Region)
		pr.Fetches++
		pr.FetchBytes += int64(e.Bytes)
		p.cell(p.pageEpochs, e.ID, e.Rank).Bytes += int64(e.Bytes)
		pr.Home = e.Peer
		pr.HomeFetches++
		pr.HomeFetchBytes += int64(e.Bytes)
	case trace.KindNotice:
		// A: the notice invalidated a valid copy; B: the receiving rank has
		// itself written the page, the multiple-writer false-sharing signal.
		pr := p.page(e.ID, e.Region)
		pr.Notices++
		p.wrote(pr, e.Peer)
		if e.A != 0 {
			pr.Invalidations++
		}
		if e.B != 0 && e.Peer != e.Rank {
			pr.FalseShareNotices++
		}
	case trace.KindLockLocal, trace.KindLockAcquire:
		lr := p.lock(e.ID, e.Peer)
		if e.Kind == trace.KindLockLocal {
			lr.AcquiresLocal++
		} else {
			lr.AcquiresRemote++
			lr.WaitNs += e.Dur
			c := p.cell(p.lockEpochs, e.ID, e.Rank)
			c.Events++
			c.Ns += e.Dur
		}
		if prev, ok := p.lastHolder[e.ID]; ok && prev != e.Rank {
			lr.Handoffs++
		}
		p.lastHolder[e.ID] = e.Rank
		p.heldSince[holderKey{rank: e.Rank, lock: e.ID}] = at
	case trace.KindLockForward:
		p.lock(e.ID, e.Rank).Forwards++
	case trace.KindLockRelease:
		k := holderKey{rank: e.Rank, lock: e.ID}
		if since, ok := p.heldSince[k]; ok {
			lr := p.lock(e.ID, -1)
			lr.Holds++
			lr.HoldNs += at - since
			delete(p.heldSince, k)
		}
	case trace.KindBarrierArrive:
		// A, the episode, identifies the crossing cluster-wide: its skew
		// is the latest minus the earliest of its arrival times.
		er := row(p.episodes, episodeKey{barrier: e.ID, episode: int32(e.A)},
			EpisodeRow{Barrier: e.ID, Episode: int32(e.A), StartNs: at})
		er.Arrivals++
		end := max(er.StartNs+er.SkewNs, at)
		er.StartNs = min(er.StartNs, at)
		er.SkewNs = end - er.StartNs
	case trace.KindBarrier:
		// B and C: the interval records and write-notice page entries the
		// rank's arrival carried upward.
		br := row(p.barriers, e.ID, BarrierRow{ID: e.ID})
		br.WaitNs += e.Dur
		br.Intervals += int64(e.B)
		br.NoticePages += int64(e.C)
		// Crossing a barrier advances the rank's epoch.
		p.epochOf(e.Rank) // ensure the table covers rank
		p.epochs[e.Rank]++
	}
}
