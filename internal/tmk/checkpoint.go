package tmk

import (
	"fmt"
	"sort"
)

// Barrier-epoch checkpoint/restart. Applications that structure their
// execution as a sequence of barrier-delimited epochs (EpochLoop) can,
// under CrashConfig.Checkpoint, snapshot every rank's complete DSM state
// at each epoch boundary. The protocol is two extra barrier fences per
// epoch: the first quiesces the cluster (every rank's interval is closed
// and every write notice delivered — a barrier's normal postcondition),
// each rank then encodes its state with asynchronous delivery masked, and
// the second fence holds every rank until all n snapshots are stored, so
// a crash can never observe a half-written checkpoint generation.
//
// The encoding is byte-deterministic: maps are iterated in sorted key order
// (the region and page tables are slices, in id order) and all integers are
// fixed-width little-endian, so identical runs produce identical checkpoint
// bytes (the harness's regression asserts this), and a restarted generation
// replays identically to an uncrashed checkpointing run.

// ckptBarrierBase namespaces the fence barrier ids away from application
// barriers (apps own the small id space; finalBarrier is 1<<31-1).
const ckptBarrierBase int32 = 1 << 30

// ckptMagic versions the checkpoint encoding. A run with migrating homes
// (Proc.homes) appends its home and candidate tables, each in page order:
// a restart that fell back to static placement would trust stale copies.
const ckptMagic = "TMKCKPT1"

// EpochLoop runs body(0) … body(epochs-1), checkpointing after every
// epoch when the crash model asks for it. Epoch 0 is conventionally the
// app's setup (allocation, initialization, first barrier); later epochs
// are its iterations. Without checkpointing this is a plain loop — the
// call sequence is exactly the app's own — so crash-free runs are
// bit-identical to apps that never heard of EpochLoop. On a restarted
// generation the epochs up to and including the restored checkpoint are
// skipped: their effects are already in the restored state.
func (tp *Proc) EpochLoop(epochs int, body func(e int)) {
	ck := tp.cluster.cfg.Crash.Checkpoint
	for e := 0; e < epochs; e++ {
		if e < tp.resumeEpoch {
			continue
		}
		body(e)
		if ck {
			tp.checkpoint(e)
		}
	}
}

// checkpoint runs the two-fence snapshot protocol for epoch e.
func (tp *Proc) checkpoint(e int) {
	start := tp.sp.Now()
	// Fence 1: quiesce. Every rank has closed its epoch-e interval and
	// applied every notice before any rank encodes.
	tp.Barrier(ckptBarrierBase + int32(2*e))
	tp.tr.DisableAsync(tp.sp)
	snap := tp.encodeSnapshot(e)
	tp.cluster.storeSnapshot(e, tp.rank, snap)
	tp.stats.Checkpoints++
	tp.stats.CheckpointBytes += int64(len(snap))
	tp.tr.EnableAsync(tp.sp)
	tp.observe(event{kind: evCheckpoint, start: start, dur: tp.sp.Now() - start, peer: -1, bytes: len(snap)})
	// Fence 2: release. No rank enters epoch e+1 until all n snapshots
	// for epoch e are stored — the checkpoint generation is atomic.
	tp.Barrier(ckptBarrierBase + int32(2*e) + 1)
}

// storeSnapshot files one rank's epoch snapshot in the cluster-side
// checkpoint store (the simulated stable storage).
func (c *Cluster) storeSnapshot(epoch, rank int, snap []byte) {
	if c.crash.snapshots == nil {
		c.crash.snapshots = make(map[int]map[int][]byte)
	}
	m := c.crash.snapshots[epoch]
	if m == nil {
		m = make(map[int][]byte)
		c.crash.snapshots[epoch] = m
	}
	m[rank] = snap
}

// Snapshot returns the stored checkpoint bytes for (epoch, rank), or nil.
// Exposed for the harness's byte-determinism regression.
func (c *Cluster) Snapshot(epoch, rank int) []byte {
	return c.crash.snapshots[epoch][rank]
}

// latestCompleteCheckpoint returns the highest epoch for which all n
// ranks stored a snapshot.
func (c *Cluster) latestCompleteCheckpoint() (int, bool) {
	best, ok := -1, false
	for e, m := range c.crash.snapshots {
		if len(m) == c.n && e > best {
			best, ok = e, true
		}
	}
	return best, ok
}

// ckptWriter builds the deterministic little-endian encoding.
type ckptWriter struct{ b []byte }

func (w *ckptWriter) u8(v byte) { w.b = append(w.b, v) }
func (w *ckptWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *ckptWriter) i32(v int32) { w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (w *ckptWriter) i64(v int64) { w.i32(int32(v)); w.i32(int32(v >> 32)) }
func (w *ckptWriter) bytes(p []byte) {
	w.i32(int32(len(p)))
	w.b = append(w.b, p...)
}
func (w *ckptWriter) i32s(l []int32) {
	w.i32(int32(len(l)))
	for _, x := range l {
		w.i32(x)
	}
}

func (w *ckptWriter) pageTable(m map[int32]int32) {
	pgs := make([]int32, 0, len(m))
	for pg := range m {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	w.i32(int32(len(pgs)))
	for _, pg := range pgs {
		w.i32(pg)
		w.i32(m[pg])
	}
}

// ckptReader decodes; every method panics on truncation (a corrupt
// checkpoint is a bug in the deterministic codec, not a runtime input).
type ckptReader struct {
	b   []byte
	off int
}

func (r *ckptReader) u8() byte {
	v := r.b[r.off]
	r.off++
	return v
}
func (r *ckptReader) bool() bool { return r.u8() != 0 }
func (r *ckptReader) i32() int32 {
	b := r.b[r.off : r.off+4]
	r.off += 4
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
func (r *ckptReader) i64() int64 {
	lo := uint32(r.i32())
	hi := int64(r.i32())
	return hi<<32 | int64(lo)
}
func (r *ckptReader) bytes() []byte {
	n := int(r.i32())
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}
func (r *ckptReader) i32s() []int32 {
	n := int(r.i32())
	if n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = r.i32()
	}
	return v
}
func (r *ckptReader) pageTable(m map[int32]int32) {
	for n := r.i32(); n > 0; n-- {
		pg := r.i32()
		m[pg] = r.i32()
	}
}

// encodeSnapshot serializes this rank's complete DSM state at a quiesced
// epoch boundary. Caller holds asynchronous delivery masked.
func (tp *Proc) encodeSnapshot(epoch int) []byte {
	if len(tp.dirty) != 0 {
		panic(fmt.Sprintf("tmk: rank %d: checkpoint with open interval (%d dirty pages)", tp.rank, len(tp.dirty)))
	}
	w := &ckptWriter{}
	w.b = append(w.b, ckptMagic...)
	w.i32(int32(epoch))
	w.i32(int32(tp.rank))
	w.i32(int32(tp.n))
	w.i32s(tp.vc)
	w.i32s(tp.lastBarrierVC)
	w.i32(tp.barrier.episode)
	w.i32(tp.expectRegion)

	// Intervals, grouped by creating process in timestamp order (the
	// store's native, deterministic layout).
	var nIvs int32
	tp.store.all(func(*intervalRec) { nIvs++ })
	w.i32(nIvs)
	tp.store.all(func(rec *intervalRec) {
		w.i32(rec.proc)
		w.i32(rec.ts)
		w.i32s(rec.vc)
		w.i32s(rec.pages)
	})

	// Regions, then pages, each in id order: the tables' own. A region's
	// pages are mapped, and so snapshotted, all together.
	var nRegions, nPages int32
	for _, r := range tp.regions {
		if r != nil {
			nRegions++
			nPages += r.NPages
		}
	}
	w.i32(nRegions)
	for _, r := range tp.regions {
		if r == nil {
			continue
		}
		w.i32(r.ID)
		w.i32(r.StartPage)
		w.i32(r.NPages)
		w.i64(r.Bytes)
		w.i32(int32(r.Owner))
	}
	// A page with a copy carries its full contents.
	w.i32(nPages)
	for _, pm := range tp.pages {
		if pm == nil {
			continue
		}
		if pm.twin != nil {
			panic(fmt.Sprintf("tmk: rank %d: checkpoint of twinned page %d", tp.rank, pm.id))
		}
		w.i32(pm.id)
		w.i32(pm.region.ID)
		w.u8(byte(pm.state))
		w.bool(pm.haveCopy)
		w.i32s(pm.cover)
		w.i32(int32(len(pm.notices)))
		for _, l := range pm.notices {
			w.i32s(l)
		}
		if pm.haveCopy {
			w.bytes(pm.bytes())
		}
	}

	// Our own retained diffs in (page, ts) order.
	diffKeys := make([]diffKey, 0, len(tp.myDiffs))
	for k := range tp.myDiffs {
		diffKeys = append(diffKeys, k)
	}
	sort.Slice(diffKeys, func(i, j int) bool {
		if diffKeys[i].page != diffKeys[j].page {
			return diffKeys[i].page < diffKeys[j].page
		}
		return diffKeys[i].ts < diffKeys[j].ts
	})
	w.i32(int32(len(diffKeys)))
	for _, k := range diffKeys {
		w.i32(k.page)
		w.i32(k.ts)
		w.bytes(tp.myDiffs[k])
	}

	// Lock tokens in id order. At a quiesced fence no lock is held and no
	// acquire is in flight, so token position and chain tail are the whole
	// state.
	lockIDs := make([]int32, 0, len(tp.locks))
	for id := range tp.locks {
		lockIDs = append(lockIDs, id)
	}
	sort.Slice(lockIDs, func(i, j int) bool { return lockIDs[i] < lockIDs[j] })
	w.i32(int32(len(lockIDs)))
	for _, id := range lockIDs {
		ls := tp.locks[id]
		if ls.held || len(ls.waiters) != 0 {
			panic(fmt.Sprintf("tmk: rank %d: checkpoint with lock %d active (held=%v waiters=%d)",
				tp.rank, id, ls.held, len(ls.waiters)))
		}
		w.i32(ls.id)
		w.bool(ls.haveToken)
		w.i32(int32(ls.tail))
	}
	if tp.homes != nil {
		w.pageTable(tp.homes.home)
		w.pageTable(tp.homes.cand)
	}
	return w.b
}

// restoreSnapshot rebuilds this (replacement) rank's DSM state from the
// epoch snapshot taken by its dead or discarded predecessor. Called
// before the application body runs, on a freshly constructed Proc.
func (tp *Proc) restoreSnapshot(epoch int) {
	snap := tp.cluster.Snapshot(epoch, tp.rank)
	if snap == nil {
		panic(fmt.Sprintf("tmk: rank %d: no checkpoint for epoch %d", tp.rank, epoch))
	}
	r := &ckptReader{b: snap}
	if string(r.b[:len(ckptMagic)]) != ckptMagic {
		panic("tmk: bad checkpoint magic")
	}
	r.off = len(ckptMagic)
	if e := int(r.i32()); e != epoch {
		panic(fmt.Sprintf("tmk: checkpoint epoch %d, want %d", e, epoch))
	}
	if rk := int(r.i32()); rk != tp.rank {
		panic(fmt.Sprintf("tmk: checkpoint rank %d, want %d", rk, tp.rank))
	}
	if n := int(r.i32()); n != tp.n {
		panic(fmt.Sprintf("tmk: checkpoint for %d procs, want %d", n, tp.n))
	}
	tp.vc = r.i32s()
	tp.lastBarrierVC = r.i32s()
	tp.barrier.episode = r.i32()
	tp.expectRegion = r.i32()

	nIvs := int(r.i32())
	for i := 0; i < nIvs; i++ {
		rec := &intervalRec{proc: r.i32(), ts: r.i32(), vc: r.i32s(), pages: r.i32s()}
		tp.store.add(rec)
	}

	nRegions := int(r.i32())
	for i := 0; i < nRegions; i++ {
		// A checkpointed region was fully distributed — committed — since the
		// snapshot fence is a barrier every rank crossed after mapping it;
		// peers of the new generation flush into the restored window as before.
		tp.materialize(&Region{ID: r.i32(), StartPage: r.i32(), NPages: r.i32(), Bytes: r.i64(),
			Owner: int(r.i32()), committed: true})
	}

	// Each page record fills a pageMeta built above.
	nPages := int(r.i32())
	for i := 0; i < nPages; i++ {
		pm := tp.page(r.i32())
		r.i32() // the region id, which the page id implies
		pm.state = pageState(r.u8())
		pm.haveCopy = r.bool()
		copy(pm.cover, r.i32s())
		nNotices := int(r.i32())
		for q := 0; q < nNotices; q++ {
			pm.notices[q] = r.i32s()
			tp.notices.live += int64(len(pm.notices[q]))
		}
		if pm.haveCopy {
			copy(pm.store(), r.bytes())
		}
	}

	nDiffs := int(r.i32())
	for i := 0; i < nDiffs; i++ {
		k := diffKey{page: r.i32(), ts: r.i32()}
		tp.keepDiff(k, r.bytes())
	}

	nLocks := int(r.i32())
	for i := 0; i < nLocks; i++ {
		ls := &lockState{id: r.i32()}
		ls.haveToken = r.bool()
		ls.tail = int(r.i32())
		tp.locks[ls.id] = ls
	}
	if tp.homes != nil {
		r.pageTable(tp.homes.home)
		r.pageTable(tp.homes.cand)
	}
	if r.off != len(snap) {
		panic(fmt.Sprintf("tmk: checkpoint trailing bytes: %d of %d consumed", r.off, len(snap)))
	}
}
