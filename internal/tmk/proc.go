package tmk

import (
	"fmt"
	"sort"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// Proc is one TreadMarks process: the per-rank DSM engine bound to a
// simulated process and a communication substrate.
type Proc struct {
	cluster *Cluster
	rank    int
	n       int // ranks: VC width, peers, app partitioning, static placement
	sp      *sim.Proc
	tr      substrate.Transport
	cpu     CPUParams

	// Home-based LRC (see home.go): set iff Config.HomeBased, in which
	// case os is the transport's one-sided capability.
	homeBased bool
	os        substrate.OneSided
	homes     *homeTable // migrating placement; nil unless homeBased
	// homeFaultRange's scratch (a handler never faults: one user at a time):
	// the pages still to validate and their Gets, index for index.
	homeGets  []homeGet
	homeVerbs []substrate.PendingVerb

	// Homeless LRC's diff-path buffers; nil home-based, which never fetches
	// or serves a diff.
	diffBufs *diffBuffers

	vc            VC
	lastBarrierVC VC
	store         *intervalStore
	pages         []*pageMeta // by global page id, into the regions' slabs; nil = not mapped here
	notices       noticePool  // backs and counts every page's notice lists
	dirty         []int32
	myDiffs       map[diffKey][]byte
	diffBytes     int64    // payload bytes in myDiffs (keepDiff, dropDiff)
	freeTwins     [][]byte // twins handed back at interval close, reused by the next write fault
	diffScratch   []byte   // closeInterval encodes here, then retains an exact-size copy

	locks   map[int32]*lockState
	barrier barrierState

	regions      []*Region // by region id; nil = not mapped here
	regionCond   *sim.Cond
	expectRegion int32

	stats Stats

	appStart sim.Time
	appEnd   sim.Time

	// Crash model (see crash.go).
	gen           int    // process generation (0 = original, 1 = restarted)
	blockedOn     entity // protocol entity currently awaited (watchdog)
	crashBarriers int    // injector counters: Barrier / LockAcquire entries
	crashLocks    int
}

// Rank returns this process's rank.
func (tp *Proc) Rank() int { return tp.rank }

// NProcs returns the number of processes the application is partitioned
// over.
func (tp *Proc) NProcs() int { return tp.n }

// Sim returns the underlying simulated process (for Compute/Now).
func (tp *Proc) Sim() *sim.Proc { return tp.sp }

// Now returns the process's virtual clock.
func (tp *Proc) Now() sim.Time { return tp.sp.Now() }

// Transport returns the substrate in use (for stats inspection).
func (tp *Proc) Transport() substrate.Transport { return tp.tr }

// Stats returns the DSM counters.
func (tp *Proc) Stats() *Stats { return &tp.stats }

// metaGauge is this rank's protocol metadata in bytes (DESIGN.md §4.3):
// retained diff payloads, interval records, and write notices — each a
// counter kept by the code that adds to and prunes its structure (keepDiff
// and dropDiff, intervalStore, noticePool), so a barrier reads it for free.
func (tp *Proc) metaGauge() int64 {
	return tp.diffBytes + tp.store.bytes + 4*tp.notices.live
}

func newProc(c *Cluster, rank int, sp *sim.Proc, tr substrate.Transport, cpu CPUParams) *Proc {
	tp := &Proc{
		cluster:       c,
		rank:          rank,
		n:             c.n,
		sp:            sp,
		tr:            tr,
		cpu:           cpu,
		vc:            NewVC(c.n),
		lastBarrierVC: NewVC(c.n),
		store:         newIntervalStore(c.n),
		myDiffs:       make(map[diffKey][]byte),
		diffScratch:   make([]byte, 0, PageSize+4),
		locks:         make(map[int32]*lockState),
		regionCond:    sim.NewCond(fmt.Sprintf("tmk:%d:region", rank)),
		barrier:       barrierState{cond: sim.NewCond(fmt.Sprintf("tmk:%d:barrier", rank))},
	}
	if c.cfg.HomeBased {
		tp.homeBased = true
		tp.os = tr.(substrate.OneSided)
		tp.homes = &homeTable{home: map[int32]int32{}, cand: map[int32]int32{}, sole: map[int32]int32{}}
	} else {
		tp.diffBufs = new(diffBuffers)
	}
	return tp
}

// diffBuffers is the homeless diff path's reusable storage. The fault path
// (one user at a time, like homeGets) keeps its missing ranges, calls in
// flight, diffs gathered and the request each CallBegin encodes before it
// returns; handleDiffReq, which can run in the middle of a fault, keeps its
// reply and the reply's diffs apart, and Reply encodes them before it
// returns.
type diffBuffers struct {
	ranges   []msg.DiffRange
	pends    []substrate.Pending
	diffs    []msg.Diff
	req      msg.Message
	reqRange [1]msg.DiffRange

	rep msg.Message
	out []msg.Diff
}

// handleRequest dispatches one asynchronous request (handler context:
// interrupts masked by the kernel for the duration).
func (tp *Proc) handleRequest(p *sim.Proc, m *msg.Message) {
	p.Advance(tp.cpu.HandlerOverhead)
	switch m.Kind {
	case msg.KLockAcquire:
		tp.handleLockAcquire(m)
	case msg.KBarrierArrive:
		tp.handleBarrierArrive(m)
	case msg.KDiffReq:
		tp.handleDiffReq(m)
	case msg.KDistribute:
		tp.mapRegion(regionFromWire(m.Region), false)
		tp.tr.Reply(p, m, &msg.Message{Kind: msg.KAck})
	case msg.KDistributeCommit:
		r := tp.RegionByID(m.Region.ID)
		if r == nil {
			panic(fmt.Sprintf("tmk: rank %d: commit for unknown region %d", tp.rank, m.Region.ID))
		}
		r.committed = true
		tp.regionCond.Broadcast()
		tp.tr.Reply(p, m, &msg.Message{Kind: msg.KAck})
	case msg.KPing:
		tp.tr.Reply(p, m, &msg.Message{Kind: msg.KPong, PageData: m.PageData})
	case msg.KExit:
		// Orderly shutdown notice; nothing to do in the simulator.
	default:
		panic(fmt.Sprintf("tmk: rank %d: unexpected request %v", tp.rank, m.Kind))
	}
}

// handleDiffReq serves our own diffs for the requested page/timestamp
// ranges.
func (tp *Proc) handleDiffReq(m *msg.Message) {
	out := tp.diffBufs.out[:0]
	for _, dr := range m.DiffReqs {
		if int(dr.Proc) != tp.rank {
			panic(fmt.Sprintf("tmk: rank %d asked for rank %d's diffs", tp.rank, dr.Proc))
		}
		own := tp.page(dr.Page).notices[tp.rank]
		i := sort.Search(len(own), func(i int) bool { return own[i] > dr.FromTS })
		for ; i < len(own) && own[i] <= dr.ToTS; i++ {
			ts := own[i]
			d, ok := tp.myDiffs[diffKey{page: dr.Page, ts: ts}]
			if !ok {
				panic(fmt.Sprintf("tmk: rank %d missing own diff page %d ts %d", tp.rank, dr.Page, ts))
			}
			out = append(out, msg.Diff{Page: dr.Page, Proc: int32(tp.rank), TS: ts, Data: d})
		}
	}
	tp.diffBufs.out = out
	tp.diffBufs.rep = msg.Message{Kind: msg.KDiffReply, Diffs: out}
	tp.tr.Reply(tp.sp, m, &tp.diffBufs.rep)
}
