package tmk

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Region is a shared-memory region in the global page-aligned address
// space (the product of Tmk_malloc + Tmk_distribute). The descriptor is
// global; each process lazily materializes local page copies.
type Region struct {
	ID        int32
	StartPage int32
	NPages    int32
	Bytes     int64
	Owner     int // the distributing process; holds the initial copy

	// committed (home-based mode, local flag): every rank has mapped the
	// region and registered its memory window, so home flushes can no
	// longer race an unregistered window. Set by KDistributeCommit.
	committed bool

	// This process's copy (materialize): the storage — home-based, also the
	// region's RDMA window — and the pages' metadata, by offset from StartPage.
	mem   []byte
	pages []pageMeta
}

// page returns this process's metadata for global page pg of the region.
func (r *Region) page(pg int32) *pageMeta { return &r.pages[pg-r.StartPage] }

func (r *Region) wire() msg.RegionInfo {
	return msg.RegionInfo{ID: r.ID, StartPage: r.StartPage, Pages: r.NPages, Bytes: r.Bytes}
}

func regionFromWire(ri msg.RegionInfo, owner int) *Region {
	return &Region{ID: ri.ID, StartPage: ri.StartPage, NPages: ri.Pages, Bytes: ri.Bytes, Owner: owner}
}

// Alloc reserves a shared region of nbytes (page-rounded) in the global
// address space and initializes the caller as its owner with a zeroed,
// valid copy — Tmk_malloc. The region is unknown to other processes
// until Distribute.
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
		Owner:     tp.rank,
		committed: true, // the owner's own window exists from mapRegion on
	}
	tp.cluster.nextRegionID++
	tp.cluster.nextPage += npages
	tp.mapRegion(r, true)
	return r
}

// Distribute announces the region to every other process — Tmk_distribute.
// In home-based mode a second commit round follows: only after every rank
// has acked the announcement (mapping the region and registering its
// window) are the AllocShared waiters released, so no rank can write —
// and therefore flush to a home window — before every window exists.
func (tp *Proc) Distribute(r *Region) {
	tp.tellPeers(r, msg.KDistribute, "region %d (distribute to %d)")
	if tp.homeBased {
		tp.tellPeers(r, msg.KDistributeCommit, "region %d (commit to %d)")
	}
}

// tellPeers is one round of Distribute: every other process in turn is
// sent the region's descriptor and acknowledges it.
func (tp *Proc) tellPeers(r *Region, kind msg.Kind, blockedOn string) {
	for peer := 0; peer < tp.n; peer++ {
		if peer == tp.rank {
			continue
		}
		rep := tp.call(peer, blocked(blockedOn, int(r.ID), peer), &msg.Message{Kind: kind, Region: r.wire()})
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
	tp.materialize(r)
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
// region and page tables: storage, the RDMA window over it (home-based:
// window id = region id, page pg at byte (pg−StartPage)·PageSize) and one
// slab each of pageMetas, their cover vectors and their notice-list headers.
func (tp *Proc) materialize(region *Region) {
	n := tp.n
	region.mem = make([]byte, int(region.NPages)*PageSize)
	if tp.homeBased {
		tp.os.RegisterWindow(tp.sp, region.ID, region.mem)
	}
	region.pages = make([]pageMeta, region.NPages)
	covers := make(VC, len(region.pages)*n)
	heads := make([][]int32, len(region.pages)*n)
	if grow := int(region.ID) + 1 - len(tp.regions); grow > 0 {
		tp.regions = append(tp.regions, make([]*Region, grow)...)
	}
	tp.regions[region.ID] = region
	if grow := int(region.StartPage+region.NPages) - len(tp.pages); grow > 0 {
		tp.pages = append(tp.pages, make([]*pageMeta, grow)...)
	}
	for i := range region.pages {
		region.pages[i] = pageMeta{
			id:      region.StartPage + int32(i),
			region:  region,
			data:    region.mem[i*PageSize : (i+1)*PageSize],
			cover:   covers[i*n : (i+1)*n : (i+1)*n],
			notices: heads[i*n : (i+1)*n : (i+1)*n],
			pool:    &tp.notices,
		}
		tp.pages[region.pages[i].id] = &region.pages[i]
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

// ReadBytes returns a read-only view of [off, off+n) in the region,
// faulting pages valid as needed. The returned slice aliases the local
// copy; callers must not write through it.
func (tp *Proc) ReadBytes(r *Region, off, n int) []byte {
	tp.checkRange(r, off, n)
	tp.faultRange(r, off, n, false)
	return r.mem[off : off+n : off+n]
}

// WriteAt copies data into the region at off.
func (tp *Proc) WriteAt(r *Region, off int, data []byte) {
	if b := tp.writeWindow(r, off, len(data)); b != nil {
		copy(b, data)
		tp.tr.EnableAsync(tp.sp)
	}
}

// writeWindow faults [off, off+n) writable and returns it to store into —
// with asynchronous request delivery masked, which the caller lifts
// (EnableAsync) after the store; an empty range returns nil, unmasked. The
// window is handed out only after re-verifying, under the mask, that every
// touched page is still writable: a request handler that runs during the
// fault (a lock grant closing our interval) can revert pages to read-only,
// and a raw store then would bypass the twin — the exact hazard mprotect
// re-trapping closes in real TreadMarks.
func (tp *Proc) writeWindow(r *Region, off, n int) []byte {
	tp.checkRange(r, off, n)
	if n == 0 {
		return nil
	}
	for {
		tp.faultRange(r, off, n, true)
		tp.tr.DisableAsync(tp.sp)
		if tp.rangeWritable(r, off, n) {
			return r.mem[off : off+n]
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
// Home-based, the span's invalid pages are validated together first (their
// Gets overlap); the loop then meets only one invalidated again since.
func (tp *Proc) faultRange(r *Region, off, n int, write bool) {
	if n == 0 {
		return
	}
	first := r.StartPage + int32(off/PageSize)
	last := r.StartPage + int32((off+n-1)/PageSize)
	if tp.homeBased {
		tp.homeFaultRange(r, first, last)
	}
	for pg := first; pg <= last; pg++ {
		pm := r.page(pg)
		if pm.state == pageInvalid {
			tp.readFault(pm)
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
// the caller's dst (one fault check per touched page, no allocation).
func (tp *Proc) ReadF64Span(r *Region, idx int, dst []float64) {
	b := tp.ReadBytes(r, idx*8, len(dst)*8)
	for i := range dst {
		dst[i] = f64FromBits(b[i*8:])
	}
}

// WriteF64Span writes vals into consecutive slots starting at idx,
// encoding straight into the page.
func (tp *Proc) WriteF64Span(r *Region, idx int, vals []float64) {
	if b := tp.writeWindow(r, idx*8, len(vals)*8); b != nil {
		for i, v := range vals {
			f64ToBits(b[i*8:], v)
		}
		tp.tr.EnableAsync(tp.sp)
	}
}

// Compute charges d of application computation to the process's virtual
// clock (the testbed-CPU cost of the work just performed natively).
func (tp *Proc) Compute(d sim.Time) { tp.sp.Advance(d) }
