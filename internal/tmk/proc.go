package tmk

import (
	"fmt"
	"sort"

	"repro/internal/gm"
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

	// Home-based LRC (see home.go): set iff Config.HomeBased, in which
	// case os is the transport's one-sided capability.
	homeBased bool
	os        substrate.OneSided
	// homeFaultRange's scratch (a handler never faults: one user at a time):
	// the pages still to validate and their Gets, index for index.
	homeGets  []homeGet
	homeVerbs []substrate.PendingVerb
	flush     homeFlush // closeInterval's flush, reused interval to interval

	// Homeless LRC's diff-path buffers; nil home-based, which never fetches
	// or serves a diff.
	diffBufs *diffBuffers

	vc            VC
	lastBarrierVC VC
	store         *intervalStore
	bufs          [2]ctxBufs  // outgoing messages, mainline's and handler's (ctxBufs)
	pages         []*pageMeta // by global page id, into the regions' slabs; nil = not mapped here
	notices       noticePool  // backs and counts every page's notice lists
	dirty         []int32
	myDiffs       map[diffKey][]byte // homeless: every diff this rank created
	diffBytes     int64              // payload bytes in myDiffs (keepDiff)
	freeTwins     [][]byte           // twins handed back at interval close, reused by the next write fault
	twins         int                // twin buffers made so far (takeTwin)
	diffScratch   []byte             // closeInterval encodes here; homeless, the diff is then kept in diffArena
	diffArena     diffArena          // homeless: every diff kept, for the run

	locks   map[int32]*lockState
	barrier barrierState

	regions      []*Region // by region id; nil = not mapped here
	regionCond   *sim.Cond
	expectRegion int32

	stats Stats

	appStart sim.Time
	appEnd   sim.Time

	blockedOn entity // protocol entity currently awaited (the watchdog's post-mortem, abort.go)
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
// counter kept by the code that adds to and prunes its structure (keepDiff,
// intervalStore, noticePool), so a barrier reads it for free.
func (tp *Proc) metaGauge() int64 {
	return tp.diffBytes + tp.store.bytes + 4*tp.notices.live
}

func newProc(c *Cluster, rank int, sp *sim.Proc, tr substrate.Transport) *Proc {
	tp := &Proc{
		cluster:       c,
		rank:          rank,
		n:             c.n,
		sp:            sp,
		tr:            tr,
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
		tp.flush.packer = homePacker{size: tp.os.PutSize, open: map[int]int{},
			limit: gm.ClassCapacity(c.gmsys.Params().ClassFor(tp.os.PutSize(1, PageSize)))}
	} else {
		tp.diffBufs = new(diffBuffers)
		tp.diffBufs.faults = tp.diffBufs.one[:0]
		tp.diffBufs.ends = tp.diffBufs.endsBuf[:0]
	}
	return tp
}

// diffBuffers is the homeless diff path's reusable storage. The fault path
// (one user at a time, like homeGets) keeps its faulted pages, the missing
// ranges (writer-sorted: a writer's request is a sub-slice), calls in
// flight, diffs gathered and the request CallBegin encodes before it
// returns; handleDiffReq, which can run mid-fault, keeps its reply, the
// reply's diffs and where each of its frames ends apart, and Reply encodes
// them before it returns.
type diffBuffers struct {
	faults []diffFault
	one    [1]diffFault // faults' first backing: a one-page fault allocates nothing
	ranges []msg.DiffRange
	pends  []substrate.Pending
	diffs  []msg.Diff
	req    msg.Message

	rep     msg.Message
	out     []msg.Diff
	ends    []int
	endsBuf [substrate.MaxFrames]int // ends' first backing: a reply within any budget allocates nothing
}

// handleRequest dispatches one asynchronous request (handler context:
// interrupts masked by the kernel for the duration).
func (tp *Proc) handleRequest(p *sim.Proc, m *msg.Message) {
	p.Advance(HandlerOverhead)
	switch m.Kind {
	case msg.KLockAcquire:
		tp.handleLockAcquire(m)
	case msg.KBarrierArrive:
		tp.handleBarrierArrive(m)
	case msg.KDiffReq:
		tp.handleDiffReq(m)
	case msg.KDistribute:
		tp.mapRegion(regionFromWire(m.Region), false)
		tp.tr.Reply(p, m, tp.outgoing(msg.Message{Kind: msg.KAck}))
	case msg.KDistributeCommit:
		r := tp.RegionByID(m.Region.ID)
		if r == nil {
			panic(fmt.Sprintf("tmk: rank %d: commit for unknown region %d", tp.rank, m.Region.ID))
		}
		r.committed = true
		tp.regionCond.Broadcast()
		tp.tr.Reply(p, m, tp.outgoing(msg.Message{Kind: msg.KAck}))
	case msg.KPing:
		tp.tr.Reply(p, m, tp.outgoing(msg.Message{Kind: msg.KPong, PageData: m.PageData}))
	default:
		panic(fmt.Sprintf("tmk: rank %d: unexpected request %v", tp.rank, m.Kind))
	}
}

// handleDiffReq serves our own diffs for the requested page/timestamp
// ranges, in request order, under the frame budget the request grants
// (DESIGN.md §4.3): the longest prefix of whole pages whose diffs fit in
// the budget's frames — and always the first page, in the frames it alone
// takes, so every request makes progress. A frame holds as many diffs as
// encode to at most MaxData bytes, cut only between diffs, and at least
// one. The requester asks again for the pages left out. The reply is built
// in one pass, cutting frames as it grows, and stops at the first diff
// past the budget: nothing after it is looked up.
func (tp *Proc) handleDiffReq(m *msg.Message) {
	db, limit, budget := tp.diffBufs, tp.tr.MaxData(), m.Budget()
	out, ends := db.out[:0], db.ends[:0] // ends: where each closed frame's diffs end
	n, data := 0, 0                      // diffs and bytes in the open frame
pages:
	for i, dr := range m.DiffReqs {
		if int(dr.Proc) != tp.rank {
			panic(fmt.Sprintf("tmk: rank %d asked for rank %d's diffs", tp.rank, dr.Proc))
		}
		mark, markEnds := len(out), len(ends)
		own := tp.page(dr.Page).noticesOf(tp.rank)
		j := sort.Search(len(own), func(j int) bool { return own[j] > dr.FromTS })
		for ; j < len(own) && own[j] <= dr.ToTS; j++ {
			ts := own[j]
			d, ok := tp.myDiffs[diffKey{page: dr.Page, ts: ts}]
			if !ok {
				panic(fmt.Sprintf("tmk: rank %d missing own diff page %d ts %d", tp.rank, dr.Page, ts))
			}
			if n > 0 && msg.DiffReplySize(n+1, data+len(d)) <= limit {
				n, data = n+1, data+len(d)
			} else {
				if n > 0 {
					ends = append(ends, len(out))
				}
				n, data = 1, len(d)
			}
			if i > 0 && len(ends)+1 > budget {
				out, ends = out[:mark], ends[:markEnds]
				break pages
			}
			out = append(out, msg.Diff{Page: dr.Page, Proc: int32(tp.rank), TS: ts, Data: d})
		}
	}
	ends = append(ends, len(out))
	db.out, db.ends = out, ends
	from := 0
	for f, end := range ends {
		db.rep = msg.Message{Kind: msg.KDiffReply, Diffs: out[from:end]}
		if len(ends) > 1 {
			db.rep.SetFrame(f, len(ends))
		}
		tp.tr.Reply(tp.sp, m, &db.rep)
		from = end
	}
}
