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
// Like internal/trace, the package is standard-library-only and knows
// nothing about the simulator: times are raw virtual nanoseconds
// (int64), tmk hands it events through the one Observe entry point, and
// recording never charges virtual time — a profiled run is
// bit-identical to an unprofiled one (enforced by
// TestProfilingDoesNotPerturbResults in internal/harness).
package prof

// Profiler accumulates per-entity attribution for one DSM run. It is
// single-threaded by construction, like the simulator it observes;
// attach one per run via tmk.Config.Prof.
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
	HomeMoves      int64 // times the home migrated to the page's sole writer

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

// Kind says what happened to the entity an Event is about.
type Kind uint8

const (
	ReadFault     Kind = iota // a read fault on page ID completed after Dur
	WriteFault                // a write fault on page ID (twin creation, but for a page homed at Rank) completed after Dur
	Fetch                     // a full-page fetch of page ID moved Bytes
	DiffFetch                 // one diff request for page ID returned Bytes of payload
	DiffCreated               // an interval close emitted a Bytes-long diff of page ID
	HomeFlush                 // Bytes of page ID's diff runs were Put into home Peer's window at interval close
	HomeFetch                 // a whole-page Get of Bytes read page ID out of home Peer's window
	HomeMove                  // page ID's home migrated from Peer to Rank, its sole writer
	Notice                    // a write notice for page ID from writer Peer arrived at Rank
	LockLocal                 // Rank re-acquired lock ID (manager Peer) at At for free: the token was already there
	LockRemote                // Rank was granted lock ID (manager Peer) at At after waiting Dur
	LockForward               // manager Rank forwarded an acquire of lock ID down the holder chain
	LockRelease               // Rank released lock ID at At, closing the hold its acquire began
	BarrierArrive             // Rank reached barrier ID in episode Episode at At
	BarrierDepart             // Rank crossed it after Dur, having carried Intervals and NoticePages upward
)

// Event is one protocol occurrence as the profiler sees it: the single
// entry point Observe takes it from tmk's event stream. Times are raw
// virtual nanoseconds; a field the Kind's comment does not name is
// ignored.
type Event struct {
	Kind   Kind
	Rank   int   // the observing rank
	ID     int32 // page, lock or barrier id
	Region int32 // a page's region
	Peer   int   // home, writer or manager rank
	Bytes  int
	At     int64 // when it happened (a span's end)
	Dur    int64 // how long the fault, acquire or crossing took

	// Notice: whether it flipped a valid copy to invalid, and whether the
	// receiving rank has itself written the page (the false-sharing signal
	// under the multiple-writer protocol).
	Invalidated, WroteHere bool

	// Barriers: the episode identifies the crossing cluster-wide (skew per
	// episode is max−min of its arrival times); a departure reports the
	// interval records and write-notice page entries of its arrive payload.
	Episode                int32
	Intervals, NoticePages int
}

// Observe records one event against its entity.
func (p *Profiler) Observe(e Event) {
	switch e.Kind {
	case ReadFault, WriteFault:
		ps := p.page(e.ID, e.Region)
		if e.Kind == ReadFault {
			ps.ReadFaults++
		} else {
			ps.WriteFaults++
			ps.writers[e.Rank] = true
		}
		ps.FaultNs += e.Dur
		c := p.pageCell(e.ID, e.Rank)
		c.Events++
		c.Ns += e.Dur
	case Fetch:
		ps := p.page(e.ID, e.Region)
		ps.Fetches++
		ps.FetchBytes += int64(e.Bytes)
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
	case DiffFetch:
		ps := p.page(e.ID, e.Region)
		ps.DiffFetches++
		ps.DiffBytesFetched += int64(e.Bytes)
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
	case DiffCreated:
		ps := p.page(e.ID, e.Region)
		ps.DiffsCreated++
		ps.DiffBytesCreated += int64(e.Bytes)
		ps.writers[e.Rank] = true
	case HomeFlush:
		ps := p.page(e.ID, e.Region)
		ps.Home = e.Peer
		ps.HomeFlushes++
		ps.HomeFlushBytes += int64(e.Bytes)
		ps.writers[e.Rank] = true
		p.pageCell(e.ID, e.Rank).Bytes += int64(e.Bytes)
	case HomeFetch:
		ps := p.page(e.ID, e.Region)
		ps.Home = e.Peer
		ps.HomeFetches++
		ps.HomeFetchBytes += int64(e.Bytes)
	case HomeMove:
		ps := p.page(e.ID, e.Region)
		ps.Home = e.Rank
		ps.HomeMoves++
	case Notice:
		ps := p.page(e.ID, e.Region)
		ps.Notices++
		ps.writers[e.Peer] = true
		if e.Invalidated {
			ps.Invalidations++
		}
		if e.WroteHere && e.Peer != e.Rank {
			ps.FalseShareNotices++
		}
	case LockLocal, LockRemote:
		ls := p.lockStats(e.ID, e.Peer)
		if e.Kind == LockLocal {
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
		p.heldSince[holderKey{rank: e.Rank, lock: e.ID}] = e.At
	case LockForward:
		p.lockStats(e.ID, e.Rank).Forwards++
	case LockRelease:
		k := holderKey{rank: e.Rank, lock: e.ID}
		if since, ok := p.heldSince[k]; ok {
			ls := p.lockStats(e.ID, -1)
			ls.Holds++
			ls.HoldNs += e.At - since
			delete(p.heldSince, k)
		}
	case BarrierArrive:
		k := episodeKey{barrier: e.ID, episode: e.Episode}
		ea := p.episodes[k]
		if ea == nil {
			ea = &episodeAgg{barrier: e.ID, episode: e.Episode, minArrive: e.At, maxArrive: e.At}
			p.episodes[k] = ea
		}
		ea.arrivals++
		ea.minArrive = min(ea.minArrive, e.At)
		ea.maxArrive = max(ea.maxArrive, e.At)
	case BarrierDepart:
		ba := p.barriers[e.ID]
		if ba == nil {
			ba = &barrierAgg{id: e.ID}
			p.barriers[e.ID] = ba
		}
		ba.waitNs += e.Dur
		ba.intervals += int64(e.Intervals)
		ba.noticePages += int64(e.NoticePages)
		// Crossing a barrier advances the rank's epoch.
		p.epochOf(e.Rank) // ensure the table covers rank
		p.epochs[e.Rank]++
	}
}
