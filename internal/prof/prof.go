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

// Profiler accumulates per-entity attribution for one DSM run. It is
// single-threaded by construction, like the simulator it observes;
// subscribe one per run to the run's tracer.
type Profiler struct {
	epochs []int32 // per-rank epoch = barriers crossed so far

	pages    map[int32]*PageStats
	locks    map[int32]*LockStats
	barriers map[int32]*barrierAgg
	episodes map[episodeKey]*episodeAgg

	pageEpochs map[cellKey]*Cell
	lockEpochs map[cellKey]*Cell

	heldSince  map[holderKey]int64 // acquire-completion time per (rank, lock)
	lastHolder map[int32]int       // previous holder per lock, for handoff counts
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{
		pages:      make(map[int32]*PageStats),
		locks:      make(map[int32]*LockStats),
		barriers:   make(map[int32]*barrierAgg),
		episodes:   make(map[episodeKey]*episodeAgg),
		pageEpochs: make(map[cellKey]*Cell),
		lockEpochs: make(map[cellKey]*Cell),
		heldSince:  make(map[holderKey]int64),
		lastHolder: make(map[int32]int),
	}
}

// PageStats is the accumulated attribution for one shared page.
type PageStats struct {
	ID     int32
	Region int32

	// Home is the page's home rank under home-based LRC, or -1 when the
	// run is homeless (no hook ever reported a home).
	Home int

	// Home-based LRC traffic: flushes are diff Puts into this page's home
	// window at interval close, fetches are whole-page Gets out of it.
	HomeFlushes    int64
	HomeFlushBytes int64
	HomeFetches    int64
	HomeFetchBytes int64

	ReadFaults  int64
	WriteFaults int64
	FaultNs     int64 // virtual time spent in faults on this page

	Fetches          int64 // full-page fetches
	FetchBytes       int64
	DiffFetches      int64 // diff requests issued for this page
	DiffBytesFetched int64
	DiffsCreated     int64
	DiffBytesCreated int64

	Invalidations     int64 // state transitions to invalid from notices
	Notices           int64 // write notices received for this page
	FalseShareNotices int64 // notices from a peer while this rank also wrote

	writers map[int]bool // distinct ranks observed writing the page
}

// Writers returns how many distinct ranks wrote the page.
func (ps *PageStats) Writers() int { return len(ps.writers) }

// FalseSharingScore is the fraction of received write notices that hit a
// page the receiving rank itself writes — the multiple-writer-protocol
// signature of false sharing. Zero for single-writer pages.
func (ps *PageStats) FalseSharingScore() float64 {
	if ps.Notices == 0 || len(ps.writers) < 2 {
		return 0
	}
	return float64(ps.FalseShareNotices) / float64(ps.Notices)
}

// LockStats is the accumulated attribution for one distributed lock.
type LockStats struct {
	ID      int32
	Manager int // statically assigned manager rank

	AcquiresLocal  int64 // token already here: free re-acquire
	AcquiresRemote int64 // grant had to travel
	WaitNs         int64 // summed remote-acquire latency
	Holds          int64 // completed acquire→release pairs
	HoldNs         int64 // summed acquire→release time
	Handoffs       int64 // acquires where the token changed rank
	Forwards       int64 // manager indirections (3-message acquires)
}

// IndirectionRate is the fraction of remote acquires the manager had to
// forward down the chain (the microbenchmark's "indirect" case).
func (ls *LockStats) IndirectionRate() float64 {
	if ls.AcquiresRemote == 0 {
		return 0
	}
	return float64(ls.Forwards) / float64(ls.AcquiresRemote)
}

// Cell is one (entity, epoch) heatmap cell.
type Cell struct {
	Events int64 // faults (pages) or remote acquires (locks)
	Ns     int64 // fault time (pages) or wait time (locks)
	Bytes  int64 // page + diff bytes fetched (pages only)
}

// barrierAgg accumulates online per-barrier-id fields; skew statistics
// are derived from the episode records at Snapshot time.
type barrierAgg struct {
	id          int32
	waitNs      int64
	intervals   int64
	noticePages int64
}

// episodeAgg collects arrival times of one (barrier, episode).
type episodeAgg struct {
	barrier   int32
	episode   int32
	arrivals  int
	minArrive int64
	maxArrive int64
}

type episodeKey struct{ barrier, episode int32 }
type cellKey struct {
	id    int32
	epoch int32
}
type holderKey struct {
	rank int
	lock int32
}

// epochOf returns rank's current epoch, growing the table on demand.
func (p *Profiler) epochOf(rank int) int32 {
	for len(p.epochs) <= rank {
		p.epochs = append(p.epochs, 0)
	}
	return p.epochs[rank]
}

func (p *Profiler) page(id, region int32) *PageStats {
	ps := p.pages[id]
	if ps == nil {
		ps = &PageStats{ID: id, Region: region, Home: -1, writers: make(map[int]bool)}
		p.pages[id] = ps
	}
	return ps
}

func (p *Profiler) lockStats(id int32, manager int) *LockStats {
	ls := p.locks[id]
	if ls == nil {
		ls = &LockStats{ID: id, Manager: manager}
		p.locks[id] = ls
	} else if manager >= 0 {
		ls.Manager = manager
	}
	return ls
}

func (p *Profiler) pageCell(id int32, rank int) *Cell {
	k := cellKey{id: id, epoch: p.epochOf(rank)}
	c := p.pageEpochs[k]
	if c == nil {
		c = &Cell{}
		p.pageEpochs[k] = c
	}
	return c
}

func (p *Profiler) lockCell(id int32, rank int) *Cell {
	k := cellKey{id: id, epoch: p.epochOf(rank)}
	c := p.lockEpochs[k]
	if c == nil {
		c = &Cell{}
		p.lockEpochs[k] = c
	}
	return c
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
		ps := p.page(e.ID, e.Region)
		if e.Kind == trace.KindReadFault {
			ps.ReadFaults++
		} else {
			ps.WriteFaults++
			ps.writers[e.Rank] = true
		}
		ps.FaultNs += e.Dur
		c := p.pageCell(e.ID, e.Rank)
		c.Events++
		c.Ns += e.Dur
	case trace.KindDiffFetch:
		ps := p.page(e.ID, e.Region)
		ps.DiffFetches++
		ps.DiffBytesFetched += int64(e.Bytes)
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
	case trace.KindDiffCreate:
		ps := p.page(e.ID, e.Region)
		ps.DiffsCreated++
		ps.DiffBytesCreated += int64(e.Bytes)
		ps.writers[e.Rank] = true
	case trace.KindHomeFlush:
		ps := p.page(e.ID, e.Region)
		ps.Home = e.Peer
		ps.HomeFlushes++
		ps.HomeFlushBytes += int64(e.Bytes)
		ps.writers[e.Rank] = true
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
	case trace.KindHomeFetch: // a full-page fetch, from the home
		ps := p.page(e.ID, e.Region)
		ps.Fetches++
		ps.FetchBytes += int64(e.Bytes)
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
		ps.Home = e.Peer
		ps.HomeFetches++
		ps.HomeFetchBytes += int64(e.Bytes)
	case trace.KindNotice:
		// A: the notice invalidated a valid copy; B: the receiving rank has
		// itself written the page, the multiple-writer false-sharing signal.
		ps := p.page(e.ID, e.Region)
		ps.Notices++
		ps.writers[e.Peer] = true
		if e.A != 0 {
			ps.Invalidations++
		}
		if e.B != 0 && e.Peer != e.Rank {
			ps.FalseShareNotices++
		}
	case trace.KindLockLocal, trace.KindLockAcquire:
		ls := p.lockStats(e.ID, e.Peer)
		if e.Kind == trace.KindLockLocal {
			ls.AcquiresLocal++
		} else {
			ls.AcquiresRemote++
			ls.WaitNs += e.Dur
			c := p.lockCell(e.ID, e.Rank)
			c.Events++
			c.Ns += e.Dur
		}
		if prev, ok := p.lastHolder[e.ID]; ok && prev != e.Rank {
			ls.Handoffs++
		}
		p.lastHolder[e.ID] = e.Rank
		p.heldSince[holderKey{rank: e.Rank, lock: e.ID}] = at
	case trace.KindLockForward:
		p.lockStats(e.ID, e.Rank).Forwards++
	case trace.KindLockRelease:
		k := holderKey{rank: e.Rank, lock: e.ID}
		if since, ok := p.heldSince[k]; ok {
			ls := p.lockStats(e.ID, -1)
			ls.Holds++
			ls.HoldNs += at - since
			delete(p.heldSince, k)
		}
	case trace.KindBarrierArrive:
		// A, the episode, identifies the crossing cluster-wide: its skew
		// is max−min of its arrival times.
		k := episodeKey{barrier: e.ID, episode: int32(e.A)}
		ea := p.episodes[k]
		if ea == nil {
			ea = &episodeAgg{barrier: e.ID, episode: int32(e.A), minArrive: at, maxArrive: at}
			p.episodes[k] = ea
		}
		ea.arrivals++
		ea.minArrive = min(ea.minArrive, at)
		ea.maxArrive = max(ea.maxArrive, at)
	case trace.KindBarrier:
		// B and C: the interval records and write-notice page entries the
		// rank's arrival carried upward.
		ba := p.barriers[e.ID]
		if ba == nil {
			ba = &barrierAgg{id: e.ID}
			p.barriers[e.ID] = ba
		}
		ba.waitNs += e.Dur
		ba.intervals += int64(e.B)
		ba.noticePages += int64(e.C)
		// Crossing a barrier advances the rank's epoch.
		p.epochOf(e.Rank) // ensure the table covers rank
		p.epochs[e.Rank]++
	}
}
