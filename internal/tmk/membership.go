package tmk

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Elastic membership (DESIGN.md §14). TreadMarks' protocol entities —
// lock managers and page homes — are statically placed by rank
// arithmetic, which bakes a fixed node set into every protocol message
// and forces whole-generation recovery when any rank dies. The
// membership layer lifts placement onto a consistent-hashed ring of live
// ranks (the Kademlia-style discipline from the ROADMAP): each in-ring
// member owns a set of virtual points, every entity hashes to a point on
// the same circle, and an entity is owned by the member whose point
// follows it. (The barrier root is not ring-placed: it is rank 0, which
// Config.Validate never lets leave or crash.)
//
// Two properties make this safe to bolt onto an LRC protocol mid-run:
//
//  1. Placement is materialized, not recomputed. The static rank
//     arithmetic remains the base placement; the ring only decides which
//     entities *move* when membership changes, and every move is recorded
//     in an override map consulted by lockManager/HomeOf.
//     With no churn the map stays empty and every run is bit-identical
//     to the static protocol.
//
//  2. Transitions are fence-synchronous. Join, leave, and crash events
//     execute at a membership fence immediately after a barrier
//     crossing, when every compute rank is quiescent (no protocol call
//     in flight — a blocked call would have kept its rank out of the
//     barrier) and every interval is closed and, under HLRC, flushed.
//     Manager state is therefore a pure function of the quiesced
//     cluster: a lock's token sits at the manager's recorded chain tail,
//     and a page home's window contents equal the happens-before
//     ordered application of every writer's retained diffs.
//
// The layer is a cluster-side service: every decision reads memberState,
// which only a fence leader writes, and nothing about it travels on the
// wire. It arms no failure detector either: every departure it schedules,
// a crash included, is administrative (departRank), so a run that never
// churns costs nothing beyond its standby ranks.

// ChurnEvent is one scheduled membership transition, executed at the
// fence following the AtBarrier-th barrier crossing (counting every
// Barrier call on the compute ranks, from 1).
type ChurnEvent struct {
	AtBarrier int    // barrier-crossing count that triggers the event
	Kind      string // "join", "leave", or "crash"
	Rank      int    // the rank joining, departing, or dying
}

// MemberConfig configures the elastic-membership layer, which is on when
// there is something for it to do — extras to spawn or a schedule to run
// — and absent otherwise. What makes a schedule legal is Config.Validate's
// replay (validate.go), nothing here.
type MemberConfig struct {
	// Extra spawns this many standby ranks beyond Config.Procs. Extras
	// run no application code and arrive at no barrier; they serve
	// protocol requests and become eligible ring members when a "join"
	// event admits them.
	Extra int
	// Schedule is the seeded churn schedule: each event executes at its
	// barrier fence, events sharing a fence in list order.
	Schedule []ChurnEvent
}

// on reports whether the run has a membership layer at all.
func (mc MemberConfig) on() bool { return mc.Extra > 0 || len(mc.Schedule) > 0 }

// entityKind discriminates the ring-placed protocol entities.
type entityKind uint8

const (
	entLock entityKind = 1
	entPage entityKind = 2
)

// entityKey names one ring-placed entity.
type entityKey struct {
	kind entityKind
	id   int32
}

// hash returns the entity's position on the ring circle.
func (e entityKey) hash() uint64 {
	if e.kind == entLock {
		return fnv64(fmt.Sprintf("L:%d", e.id))
	}
	return fnv64(fmt.Sprintf("P:%d", e.id))
}

// fnv64 is FNV-1a, the ring's point hash (stable across runs — placement
// must be a pure function of ids, never of iteration order).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringVnodes is the number of virtual points per member; more points
// smooth the capture fraction a joiner takes.
const ringVnodes = 8

// memberState is the cluster-side canonical membership: epoch, bitmaps,
// the placement override map, and the fence synchronization state. It is
// mutated only by the fence leader while every compute rank is parked.
type memberState struct {
	epoch  int32
	live   uint64 // rank r is running (compute ranks and spawned extras)
	inRing uint64 // rank r owns ring points (compute ranks; joined extras)

	// owner records every entity whose placement moved off its static
	// base. Empty ⇔ the run is bit-identical to the static protocol.
	owner map[entityKey]int

	fenceSeq   int
	fenceCount int
	fenceCond  *sim.Cond
}

func newMemberState(w, total int) *memberState {
	m := &memberState{
		owner:     make(map[entityKey]int),
		fenceCond: sim.NewCond("tmk:member:fence"),
	}
	for r := 0; r < total; r++ {
		m.live |= 1 << uint(r)
	}
	for r := 0; r < w; r++ {
		m.inRing |= 1 << uint(r)
	}
	return m
}

func (m *memberState) isLive(r int) bool   { return m.live&(1<<uint(r)) != 0 }
func (m *memberState) isInRing(r int) bool { return m.inRing&(1<<uint(r)) != 0 }

// ringPoint is one virtual point owned by a member.
type ringPoint struct {
	h    uint64
	rank int
}

// ringPointsFor builds the sorted point set of the given members.
func ringPointsFor(members []int) []ringPoint {
	pts := make([]ringPoint, 0, len(members)*ringVnodes)
	for _, r := range members {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{h: fnv64(fmt.Sprintf("m:%d:%d", r, v)), rank: r})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].rank < pts[j].rank
	})
	return pts
}

// succOn returns the member owning position h: the first point clockwise
// of h, wrapping to the smallest point. Returns -1 on an empty ring.
func succOn(pts []ringPoint, h uint64) int {
	if len(pts) == 0 {
		return -1
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].h > h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].rank
}

// members lists the in-ring live ranks passing keep (nil keeps all), in
// rank order.
func (m *memberState) members(total int, keep func(int) bool) []int {
	var out []int
	for r := 0; r < total; r++ {
		if m.isInRing(r) && m.isLive(r) && (keep == nil || keep(r)) {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Placement. The static rank arithmetic is the base; the override map
// records every entity the ring moved.

func (c *Cluster) placeLock(id int32) int {
	if c.member != nil {
		if o, ok := c.member.owner[entityKey{entLock, id}]; ok {
			return o
		}
	}
	return int(id) % c.w
}

func (c *Cluster) placePage(pg int32) int {
	if c.member != nil {
		if o, ok := c.member.owner[entityKey{entPage, pg}]; ok {
			return o
		}
	}
	return int(pg % int32(c.w))
}

// ---------------------------------------------------------------------------
// The membership fence.

// maybeChurn runs at the tail of every Barrier crossing: if the schedule
// has events due at this crossing count, all compute ranks rendezvous
// here and the last arrival executes the transitions while the cluster
// is provably quiescent.
func (tp *Proc) maybeChurn() {
	c := tp.cluster
	m := c.member
	if m == nil {
		return
	}
	crossing := int(tp.stats.Barriers)
	due := false
	for _, ev := range c.cfg.Membership.Schedule {
		if ev.AtBarrier == crossing {
			due = true
			break
		}
	}
	if !due {
		return
	}
	seq := m.fenceSeq
	m.fenceCount++
	if m.fenceCount < c.w {
		tp.blockedOn = blocked("membership fence (barrier crossing %d, epoch %d)", crossing, int(m.epoch))
		for m.fenceSeq == seq {
			tp.sp.WaitOn(m.fenceCond)
		}
		tp.blockedOn = entity{}
		return
	}
	m.fenceCount = 0
	c.runChurn(tp, crossing)
	m.fenceSeq++
	m.fenceCond.Broadcast()
}

// churnKinds maps a ChurnEvent.Kind to its event kind.
var churnKinds = map[string]*evKind{"join": evMemberJoin, "leave": evMemberLeave, "crash": evMemberCrash}

// runChurn executes every event due at this crossing and bumps the fence
// epoch.
func (c *Cluster) runChurn(leader *Proc, crossing int) {
	m := c.member
	for _, ev := range c.cfg.Membership.Schedule {
		if ev.AtBarrier != crossing {
			continue
		}
		leader.observe(event{kind: churnKinds[ev.Kind], peer: ev.Rank, a: crossing, b: int(m.epoch)})
		switch ev.Kind {
		case "join":
			c.churnJoin(leader, ev.Rank)
		case "leave":
			c.churnLeave(leader, ev.Rank)
		case "crash":
			c.churnCrash(leader, ev.Rank)
		}
	}
	m.epoch++
}

// liveLockIDs enumerates every lock id materialized anywhere on a live
// rank, sorted (placement decisions must not depend on map order).
func (c *Cluster) liveLockIDs() []int32 {
	seen := make(map[int32]bool)
	for r, tp := range c.procs {
		if tp == nil || !c.member.isLive(r) {
			continue
		}
		for id := range tp.locks {
			seen[id] = true
		}
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// churnJoin admits a standby extra to the ring. The joiner captures
// exactly the entities whose ring position it now succeeds — a bounded
// ~1/(members+1) arc — and each captured entity's manager state is
// installed at the joiner before any rank resumes.
func (c *Cluster) churnJoin(leader *Proc, r int) {
	m := c.member
	m.inRing |= 1 << uint(r)
	pts := ringPointsFor(m.members(c.n, nil))
	for _, id := range c.liveLockIDs() {
		e := entityKey{entLock, id}
		if succOn(pts, e.hash()) == r && c.placeLock(id) != r {
			c.handoffLock(leader, id, c.placeLock(id), r)
		}
	}
	if c.cfg.HomeBased {
		for pg := int32(0); pg < c.nextPage; pg++ {
			e := entityKey{entPage, pg}
			if succOn(pts, e.hash()) == r && c.placePage(pg) != r {
				c.handoffPage(leader, pg, c.placePage(pg), r)
			}
		}
	}
	leader.stats.MemberJoins++
}

// churnLeave removes a rank from the ring and re-places every entity it
// owned. A compute rank keeps running (it merely sheds its manager
// roles); an extra departs entirely — state is handed off from its
// still-reachable memory, then it is struck from the live set, killed,
// and every survivor purges its per-peer transport state.
func (c *Cluster) churnLeave(leader *Proc, r int) {
	m := c.member
	m.inRing &^= 1 << uint(r)
	c.replaceEntitiesOf(leader, r, false)
	if r >= c.w {
		m.live &^= 1 << uint(r)
		c.departRank(r)
	}
	leader.stats.MemberLeaves++
}

// churnCrash handles a scheduled extra death: the rank is declared dead,
// only its entities are re-placed — locks from the surviving token
// census, page homes rebuilt from every live writer's retained diffs —
// and the run continues. No failure detector fires afterwards: departRank
// has every survivor forget the rank (ForgetPeer is administrative — no
// recorded failure, no callback) before anyone resumes.
func (c *Cluster) churnCrash(leader *Proc, r int) {
	m := c.member
	m.live &^= 1 << uint(r)
	m.inRing &^= 1 << uint(r)
	c.replaceEntitiesOf(leader, r, true)
	c.departRank(r)
	leader.stats.MemberCrashes++
	leader.stats.MemberPartialRecoveries++
}

// departRank kills a departing/dead extra and purges its per-peer state
// (duplicate caches, pending calls) on every survivor, so a later joiner
// reusing the rank id can never match a stale (origin, seq) entry.
func (c *Cluster) departRank(r int) {
	if tp := c.procs[r]; tp != nil {
		tp.sp.Kill()
	}
	for q, tp := range c.procs {
		if tp == nil || q == r || !c.member.isLive(q) {
			continue
		}
		tp.tr.ForgetPeer(r)
	}
}

// replaceEntitiesOf re-places every entity currently owned by rank r.
// With rebuild set (crash), page homes are reconstructed from surviving
// writers' diffs instead of copied from r's memory. Validate's replay
// guarantees the takers exist: rank 0 is always a compute ring member,
// and a departing extra leaves another joined extra behind under HLRC.
func (c *Cluster) replaceEntitiesOf(leader *Proc, r int, rebuild bool) {
	m := c.member
	anyPts := ringPointsFor(m.members(c.n, nil))
	extraPts := ringPointsFor(m.members(c.n, func(q int) bool { return q >= c.w }))

	for _, id := range c.liveLockIDs() {
		if c.placeLock(id) != r {
			continue
		}
		to := succOn(anyPts, entityKey{entLock, id}.hash())
		if rebuild {
			c.recoverLock(leader, id, r, to)
		} else {
			c.handoffLock(leader, id, r, to)
		}
	}
	if c.cfg.HomeBased {
		for pg := int32(0); pg < c.nextPage; pg++ {
			if c.placePage(pg) != r {
				continue
			}
			to := succOn(extraPts, entityKey{entPage, pg}.hash())
			if to < 0 {
				// No joined extra: r is a compute rank shedding its manager
				// roles, still running — its window keeps serving the page.
				continue
			}
			if rebuild {
				c.recoverPage(leader, pg, to)
			} else {
				c.handoffPage(leader, pg, r, to)
			}
		}
	}
}

// What a handoff costs the fence leader: it copies the entity's manager
// state to the new owner at MemcpyBandwidth. A lock's state is its kind,
// id and chain tail; a page home's is kind, id, length and the page image.
const (
	lockHandoffBytes = 1 + 4 + 4
	pageHandoffBytes = 1 + 4 + 4 + PageSize
)

// handoffLock moves a lock's manager state (its chain tail — at a
// quiesced fence the tail is the token holder) from the old manager to
// the new one.
func (c *Cluster) handoffLock(leader *Proc, id int32, from, to int) {
	fp := c.procs[from]
	ols := fp.locks[id]
	if ols == nil {
		// The manager role was never exercised: the token still sits here
		// lazily. Materialize it so the recorded tail is authoritative.
		ols = &lockState{id: id, haveToken: true, tail: from}
		fp.locks[id] = ols
	}
	if len(ols.waiters) > 0 {
		panic(fmt.Sprintf("tmk: lock %d handoff with %d queued waiters (fence not quiescent)", id, len(ols.waiters)))
	}
	c.installLock(leader, id, to, ols.tail)
	leader.observe(event{kind: evLockHandoff, id: id, peer: to, a: from, b: ols.tail})
}

// recoverLock re-places a dead manager's lock from surviving state: the
// token census. Extras never acquire locks, so the token is always held
// (or lazily parked) at some live rank; the new manager's chain tail is
// wherever the census finds it.
func (c *Cluster) recoverLock(leader *Proc, id int32, dead, to int) {
	tail := -1
	for q, tp := range c.procs {
		if tp == nil || q == dead || !c.member.isLive(q) {
			continue
		}
		if ls := tp.locks[id]; ls != nil && ls.haveToken {
			tail = q
			break
		}
	}
	if tail < 0 {
		// No live rank has materialized the token: it was never granted
		// away from the original static manager, which is a compute rank
		// (dead managers are extras) — park the tail there.
		tail = int(id) % c.w
		sp := c.procs[tail]
		if sp.locks[id] == nil {
			sp.locks[id] = &lockState{id: id, haveToken: true, tail: tail}
		}
	}
	c.installLock(leader, id, to, tail)
	leader.observe(event{kind: evLockRecover, id: id, peer: to, a: dead, b: tail})
}

// installLock makes rank to the manager of lock id. Only the chain tail
// is adopted: token/held/waiters are the new manager's own local state
// (it may itself be the token holder).
func (c *Cluster) installLock(leader *Proc, id int32, to, tail int) {
	np := c.procs[to]
	nls := np.locks[id]
	if nls == nil {
		nls = &lockState{id: id}
		np.locks[id] = nls
	}
	nls.tail = tail
	leader.sp.Advance(sim.BytesTime(lockHandoffBytes, leader.cpu.MemcpyBandwidth))
	leader.stats.MemberHandoffLocks++
	leader.stats.MemberHandoffBytes += lockHandoffBytes
	c.member.owner[entityKey{entLock, id}] = to
}

// handoffPage copies a page home's window image to the new home (always
// a joined extra).
func (c *Cluster) handoffPage(leader *Proc, pg int32, from, to int) {
	fp := c.procs[from]
	pm := fp.mapped(pg)
	if pm == nil || !pm.haveCopy {
		panic(fmt.Sprintf("tmk: page %d handoff: old home %d has no copy", pg, from))
	}
	c.installPage(leader, pg, to, pm.bytes())
	leader.observe(event{kind: evPageHandoff, id: pg, peer: to, a: from})
}

// recoverPage rebuilds a dead home's page at the new home from zeros
// plus every live writer's retained diffs, applied in the same
// happens-before linear extension the homeless protocol uses. Pages
// start zeroed and all application content flows through the twin/diff
// machinery, so the replay reproduces the lost window exactly.
func (c *Cluster) recoverPage(leader *Proc, pg int32, to int) {
	type replayDiff struct {
		rec  *intervalRec
		data []byte
	}
	var diffs []replayDiff
	for q, tp := range c.procs {
		if tp == nil || !c.member.isLive(q) {
			continue
		}
		for key, d := range tp.myDiffs {
			if key.page != pg {
				continue
			}
			rec := tp.store.get(int32(q), key.ts)
			if rec == nil {
				panic(fmt.Sprintf("tmk: rank %d diff page %d ts %d with no interval record", q, pg, key.ts))
			}
			diffs = append(diffs, replayDiff{rec: rec, data: d})
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return hbBefore(diffs[i].rec, diffs[j].rec) })
	buf := make([]byte, PageSize)
	for _, d := range diffs {
		if err := ApplyDiff(buf, d.data); err != nil {
			panic(fmt.Sprintf("tmk: page %d rebuild: %v", pg, err))
		}
		leader.sp.Advance(sim.BytesTime(len(d.data), leader.cpu.MemcpyBandwidth))
		leader.stats.MemberDiffsReplayed++
	}
	c.installPage(leader, pg, to, buf)
	leader.observe(event{kind: evPageRebuild, id: pg, peer: to, a: len(diffs)})
}

// installPage makes rank to the home of page pg: the image lands in the
// home's registered window (readers' Gets serve from it immediately) and
// the page is marked resident. Extras never receive intervals, so a home
// page on an extra is never invalidated — exactly the HLRC home
// discipline.
func (c *Cluster) installPage(leader *Proc, pg int32, to int, image []byte) {
	np := c.procs[to]
	pm := np.page(pg)
	copy(pm.store(), image)
	pm.haveCopy = true
	if pm.state == pageInvalid {
		pm.state = pageReadOnly
	}
	leader.sp.Advance(sim.BytesTime(pageHandoffBytes, leader.cpu.MemcpyBandwidth))
	leader.stats.MemberHandoffPages++
	leader.stats.MemberHandoffBytes += pageHandoffBytes
	c.member.owner[entityKey{entPage, pg}] = to
}

// MemberReport summarizes the membership layer's end state for a Result.
type MemberReport struct {
	Epoch  int32  // fences executed
	Live   uint64 // final live bitmap
	InRing uint64 // final ring bitmap
	Moves  int    // entities whose placement moved off the static base
}
