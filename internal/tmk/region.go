package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// Region is a shared-memory region in the global page-aligned address
// space (the product of Tmk_malloc + Tmk_distribute). The descriptor is
// global; each process lazily materializes local page copies: mapping the
// region gives a process the pages' metadata, and a page's frame appears at
// the first byte stored into it (an application write or an applied diff).
// Until then a page this process holds a copy of reads as zeros — what an
// untouched mmap'ed page costs the DSM the paper ports. Home-based, every
// frame is backed when the region is mapped: the region is the RDMA window,
// and pinned memory is physically backed.
type Region struct {
	ID        int32
	StartPage int32
	NPages    int32
	Bytes     int64

	// committed (home-based mode, local flag): every rank has mapped the
	// region and pinned its memory window, so this rank's home flushes can
	// no longer race an unpinned one. Set on a peer by KDistributeCommit,
	// on the owner when Distribute's commit round ends.
	committed bool

	// This process's copy (materialize): the pages' metadata, by offset from
	// StartPage, and the storage their frames are carved from — chunk is the
	// unused tail of the current run of frames, unbacked the pages without one;
	// home-based, window is the whole region's storage, its RDMA window.
	pages    []pageMeta
	chunk    []byte
	unbacked int32
	window   []byte

	// This process's sequential read-fault run in the region (readFault):
	// the page after the last one the previous fault validated, prefetched
	// pages included; how many faults in a row began there; and the diff
	// bytes per page the previous fault applied (homeless).
	next    int32
	run     int32
	perPage int
}

// frameChunk is how many page frames a region's storage grows by (fewer when
// fewer pages are left unbacked: a one-page region costs one page).
const frameChunk = 16

// zeroPage is what every page with a copy and no frame yet reads as. It is
// shared by all processes and never written.
var zeroPage [PageSize]byte

// bytes returns the page's contents to read: its frame, or zeros before the
// first store.
func (pm *pageMeta) bytes() []byte {
	if pm.frame == nil {
		return zeroPage[:]
	}
	return pm.frame
}

// zeroTwin reports whether the page's twin is the shared zero page: the
// page had no frame when its write fault twinned it.
func (pm *pageMeta) zeroTwin() bool { return pm.twin != nil && &pm.twin[0] == &zeroPage[0] }

// store returns the page's frame to write into, carving it out of the
// region's current chunk at the first call.
func (pm *pageMeta) store() []byte {
	if pm.frame == nil {
		r := pm.region
		if len(r.chunk) == 0 {
			r.chunk = make([]byte, int(min(frameChunk, r.unbacked))*PageSize)
		}
		pm.frame, r.chunk = r.chunk[:PageSize:PageSize], r.chunk[PageSize:]
		r.unbacked--
	}
	return pm.frame
}

// page returns this process's metadata for global page pg of the region.
func (r *Region) page(pg int32) *pageMeta { return &r.pages[pg-r.StartPage] }

func (r *Region) wire() msg.RegionInfo {
	return msg.RegionInfo{ID: r.ID, StartPage: r.StartPage, Pages: r.NPages, Bytes: r.Bytes}
}

func regionFromWire(ri msg.RegionInfo) *Region {
	return &Region{ID: ri.ID, StartPage: ri.StartPage, NPages: ri.Pages, Bytes: ri.Bytes}
}

// Alloc reserves a shared region of nbytes (page-rounded) in the global
// address space and initializes the caller as its owner with a zeroed,
// valid copy — Tmk_malloc. The region is unknown to other processes
// until Distribute, which also pins a home-based owner's window.
func (tp *Proc) Alloc(nbytes int) *Region {
	if nbytes <= 0 {
		panic("tmk: Alloc of non-positive size")
	}
	npages := int32((nbytes + PageSize - 1) / PageSize)
	r := &Region{
		ID:        tp.cluster.nextRegionID,
		StartPage: tp.cluster.nextPage,
		NPages:    npages,
		Bytes:     int64(nbytes),
	}
	tp.cluster.nextRegionID++
	tp.cluster.nextPage += npages
	tp.mapRegion(r, true)
	return r
}

// Distribute announces the region to every other process — Tmk_distribute —
// in one scatter: every peer maps the region and acks at once. Home-based,
// each peer pins its window before it acks, and the owner pins its own
// meanwhile, between posting the announcements and collecting the acks:
// nothing can Put into the owner's window before the commit round ends.
// That second scatter releases the AllocShared waiters only after every
// rank has acked the announcement, so no rank can write — and therefore
// flush to a home window — before every window is pinned.
func (tp *Proc) Distribute(r *Region) {
	pending := tp.announce(r, msg.KDistribute)
	if tp.homeBased {
		tp.os.RegisterWindow(tp.sp, r.ID, r.window)
	}
	tp.collectAcks(r, msg.KDistribute, "region %d (distribute; acks owed by %v)", pending)
	if tp.homeBased {
		tp.collectAcks(r, msg.KDistributeCommit, "region %d (commit; acks owed by %v)",
			tp.announce(r, msg.KDistributeCommit))
		r.committed = true
	}
}

// announce posts one round of Distribute, the region's descriptor, to every
// other process at once.
func (tp *Proc) announce(r *Region, kind msg.Kind) []substrate.Pending {
	pending := make([]substrate.Pending, 0, tp.n-1)
	for peer := 0; peer < tp.n; peer++ {
		if peer != tp.rank {
			pending = append(pending, tp.tr.CallBegin(tp.sp, peer, &msg.Message{Kind: kind, Region: r.wire()}))
		}
	}
	return pending
}

// collectAcks waits for every ack of one announce round, naming the peers
// whose ack is still owed while it does.
func (tp *Proc) collectAcks(r *Region, kind msg.Kind, blockedOn string, pending []substrate.Pending) {
	for _, rep := range tp.scatter(owedBy(pending, blockedOn, int(r.ID)), pending) {
		if rep.Kind != msg.KAck {
			panic(fmt.Sprintf("tmk: %v: unexpected %v", kind, rep.Kind))
		}
	}
}

// AllocShared is the collective convenience used by SPMD applications:
// every process calls it at the same point; rank 0 allocates and
// distributes, everyone returns the same region.
func (tp *Proc) AllocShared(nbytes int) *Region {
	if tp.rank == 0 {
		r := tp.Alloc(nbytes)
		tp.Distribute(r)
		return r
	}
	want := tp.expectRegion
	tp.expectRegion++
	tp.blockedOn = blocked("region %d (awaiting distribute from rank 0)", int(want))
	r := tp.RegionByID(want)
	for ; r == nil || (tp.homeBased && !r.committed); r = tp.RegionByID(want) {
		tp.sp.WaitOn(tp.regionCond)
	}
	tp.blockedOn = entity{}
	return r
}

// mapRegion materializes local storage for a region. The owner starts
// with every page valid (zeroed); others start invalid with no copy.
func (tp *Proc) mapRegion(r *Region, owned bool) {
	if tp.RegionByID(r.ID) != nil {
		return
	}
	tp.materialize(r, owned)
	for i := range r.pages {
		pm := &r.pages[i]
		if owned || (tp.homeBased && tp.HomeOf(pm.id) == tp.rank) {
			// The home's copy IS the window: incoming flushes keep it
			// current from the moment the region exists, so it starts (and
			// stays) valid here.
			pm.haveCopy = true
			pm.state = pageReadOnly
		}
	}
	if tp.rank == 0 && !owned {
		// Rank 0 learned a region distributed by someone else.
		tp.expectRegion = r.ID + 1
	}
	// Replay write notices from intervals learned before the region was
	// mapped here (possible when Distribute races interval exchange).
	tp.store.all(func(rec *intervalRec) {
		if int(rec.proc) == tp.rank {
			return
		}
		for _, pg := range rec.pages {
			if pg >= r.StartPage && pg < r.StartPage+r.NPages {
				tp.deliverNotice(r.page(pg), rec)
			}
		}
	})
	tp.regionCond.Broadcast()
}

// materialize gives region its copy on this process and enters it in the
// region and page tables: one slab of pageMetas, whose writer lists start
// empty, and no storage — except home-based, where the first chunk is the
// whole region, its window (window id = region id, page pg at byte
// (pg−StartPage)·PageSize), and every page takes its frame from it now. A
// peer pins the window here; the owner pins it in Distribute.
func (tp *Proc) materialize(region *Region, owned bool) {
	region.pages = make([]pageMeta, region.NPages)
	region.unbacked = region.NPages
	region.next = -1 // no page: a region's first fault starts a run
	if tp.homeBased {
		region.window = make([]byte, int(region.NPages)*PageSize)
		region.chunk = region.window
		if !owned {
			tp.os.RegisterWindow(tp.sp, region.ID, region.window)
		}
	}
	if grow := int(region.ID) + 1 - len(tp.regions); grow > 0 {
		tp.regions = append(tp.regions, make([]*Region, grow)...)
	}
	tp.regions[region.ID] = region
	if grow := int(region.StartPage+region.NPages) - len(tp.pages); grow > 0 {
		tp.pages = append(tp.pages, make([]*pageMeta, grow)...)
	}
	for i := range region.pages {
		region.pages[i] = pageMeta{id: region.StartPage + int32(i), region: region, pool: &tp.notices}
		tp.pages[region.pages[i].id] = &region.pages[i]
		if tp.homeBased {
			region.pages[i].store()
		}
	}
}

// mapped returns the metadata for a global page id, nil if the page's
// region is not mapped on this process.
func (tp *Proc) mapped(pg int32) *pageMeta {
	if int(pg) >= len(tp.pages) {
		return nil
	}
	return tp.pages[pg]
}

// page is mapped for a page that must be.
func (tp *Proc) page(pg int32) *pageMeta {
	pm := tp.mapped(pg)
	if pm == nil {
		panic(fmt.Sprintf("tmk: rank %d: access to unmapped page %d", tp.rank, pg))
	}
	return pm
}

// within returns the part of [off, off+n) that lies in its first page: the
// page, the byte offset into it and the length.
func (r *Region) within(off, n int) (pm *pageMeta, po, k int) {
	po = off % PageSize
	return &r.pages[off/PageSize], po, min(n, PageSize-po)
}

// ReadBytes returns a read-only view of [off, off+n) in the region,
// faulting pages valid as needed. Within one page the returned slice aliases
// the local copy (or the shared zero page); across pages it is a copy.
// Callers must not write through it.
func (tp *Proc) ReadBytes(r *Region, off, n int) []byte {
	tp.checkRange(r, off, n)
	tp.faultRange(r, off, n, false)
	pm, po, k := r.within(off, n)
	if k == n {
		return pm.bytes()[po : po+n : po+n]
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		pm, po, k = r.within(off+len(out), n-len(out))
		out = append(out, pm.bytes()[po:po+k]...)
	}
	return out
}

// WriteAt copies data into the region at off.
func (tp *Proc) WriteAt(r *Region, off int, data []byte) {
	if !tp.writeWindow(r, off, len(data)) {
		return
	}
	for len(data) > 0 {
		pm, po, k := r.within(off, len(data))
		copy(pm.store()[po:], data[:k])
		off, data = off+k, data[k:]
	}
	tp.tr.EnableAsync(tp.sp)
}

// writeWindow faults [off, off+n) writable and reports whether there is
// anything to store — with asynchronous request delivery masked, which the
// caller lifts (EnableAsync) after storing into the pages' frames; an empty
// range reports false, unmasked. The window opens only after re-verifying,
// under the mask, that every touched page is still writable: a request
// handler that runs during the fault (a lock grant closing our interval) can
// revert pages to read-only, and a raw store then would bypass the twin —
// the exact hazard mprotect re-trapping closes in real TreadMarks.
func (tp *Proc) writeWindow(r *Region, off, n int) bool {
	tp.checkRange(r, off, n)
	if n == 0 {
		return false
	}
	for {
		tp.faultRange(r, off, n, true)
		tp.tr.DisableAsync(tp.sp)
		if tp.rangeWritable(r, off, n) {
			return true
		}
		tp.tr.EnableAsync(tp.sp)
	}
}

// rangeWritable reports whether every page covering [off, off+n) is in
// the writable (twinned) state.
func (tp *Proc) rangeWritable(r *Region, off, n int) bool {
	first := r.StartPage + int32(off/PageSize)
	last := r.StartPage + int32((off+n-1)/PageSize)
	for pg := first; pg <= last; pg++ {
		if r.page(pg).state != pageWritable {
			return false
		}
	}
	return true
}

func (tp *Proc) checkRange(r *Region, off, n int) {
	if off < 0 || n < 0 || int64(off)+int64(n) > int64(r.NPages)*PageSize {
		panic(fmt.Sprintf("tmk: range [%d,%d) outside region %d (%d pages)", off, off+n, r.ID, r.NPages))
	}
}

// faultRange runs the fault path over every page the byte range touches.
// The span's invalid pages are validated together first (readFault); the
// loop then meets only one invalidated again since.
func (tp *Proc) faultRange(r *Region, off, n int, write bool) {
	if n == 0 {
		return
	}
	first := r.StartPage + int32(off/PageSize)
	last := r.StartPage + int32((off+n-1)/PageSize)
	tp.readFault(r, first, last)
	for pg := first; pg <= last; pg++ {
		pm := r.page(pg)
		if pm.state == pageInvalid {
			tp.readFault(r, pg, pg)
		}
		if write && pm.state != pageWritable {
			tp.writeFault(pm)
		}
	}
}

// Typed accessors (8-byte float and 4-byte int views of a region).

// ReadF64 reads the i-th float64 slot.
func (tp *Proc) ReadF64(r *Region, i int) float64 {
	b := tp.ReadBytes(r, i*8, 8)
	return f64FromBits(b)
}

// WriteF64 writes the i-th float64 slot.
func (tp *Proc) WriteF64(r *Region, i int, v float64) {
	var b [8]byte
	f64ToBits(b[:], v)
	tp.WriteAt(r, i*8, b[:])
}

// ReadI32 reads the i-th int32 slot.
func (tp *Proc) ReadI32(r *Region, i int) int32 {
	b := tp.ReadBytes(r, i*4, 4)
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// WriteI32 writes the i-th int32 slot.
func (tp *Proc) WriteI32(r *Region, i int, v int32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	tp.WriteAt(r, i*4, b[:])
}

// RegionByID returns the region with the given allocation id, or nil if
// it has not been mapped on this process yet.
func (tp *Proc) RegionByID(id int32) *Region {
	if int(id) >= len(tp.regions) {
		return nil
	}
	return tp.regions[id]
}

// ReadF64Span decodes the len(dst) float64 slots starting at slot idx into
// the caller's dst (one fault check per touched page, no allocation), page
// by page: a slot never straddles two.
func (tp *Proc) ReadF64Span(r *Region, idx int, dst []float64) {
	off := idx * 8
	tp.checkRange(r, off, len(dst)*8)
	tp.faultRange(r, off, len(dst)*8, false)
	for len(dst) > 0 {
		pm, po, k := r.within(off, len(dst)*8)
		b := pm.bytes()[po : po+k]
		for i := range dst[:k/8] {
			dst[i] = f64FromBits(b[i*8:])
		}
		off, dst = off+k, dst[k/8:]
	}
}

// WriteF64Span writes vals into consecutive slots starting at idx,
// encoding straight into the pages.
func (tp *Proc) WriteF64Span(r *Region, idx int, vals []float64) {
	off := idx * 8
	if !tp.writeWindow(r, off, len(vals)*8) {
		return
	}
	for len(vals) > 0 {
		pm, po, k := r.within(off, len(vals)*8)
		b := pm.store()[po : po+k]
		for i, v := range vals[:k/8] {
			f64ToBits(b[i*8:], v)
		}
		off, vals = off+k, vals[k/8:]
	}
	tp.tr.EnableAsync(tp.sp)
}

// Compute charges d of application computation to the process's virtual
// clock (the testbed-CPU cost of the work just performed natively).
func (tp *Proc) Compute(d sim.Time) { tp.sp.Advance(d) }
