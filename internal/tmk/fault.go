package tmk

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// readFault makes the invalid pages of region r's span [first, last] valid,
// all in flight at once: whole from their homes, or as their noticed diffs.
// A fault whose first invalid page is the one after the previous fault's
// last continues a sequential run, and the k-th such fault in a row also
// validates up to k pages past the span, in the same request or Get wave
// (readahead, DESIGN.md §4.3); any other fault starts a new run.
func (tp *Proc) readFault(r *Region, first, last int32) {
	lead := first
	for lead <= last && r.page(lead).state != pageInvalid {
		lead++
	}
	if lead > last {
		return
	}
	if lead == r.next {
		r.run++
	} else {
		r.run = 0
	}
	ahead := tp.readahead(r, last)
	if tp.homeBased {
		tp.homeFaultRange(r, first, last, ahead)
	} else {
		tp.diffFaultRange(r, first, last, ahead)
	}
	r.next = last + ahead + 1
}

// readahead returns how many pages past last a fault also validates: up to
// the run's length, ending at the region's end and at the first page that
// is valid or that no writer owes a diff for. Homeless, the writer copies
// each diff into its reply in its request handler, so the window also
// carries at most half a page of diff bytes at the previous fault's bytes
// per page; a home's NIC serves a Get without its host, and only the run
// bounds a home-based window.
func (tp *Proc) readahead(r *Region, last int32) int32 {
	most := r.run
	if !tp.homeBased && r.perPage > 0 {
		most = min(most, int32(PageSize/2/r.perPage))
	}
	ahead := int32(0)
	for end := r.StartPage + r.NPages; ahead < most && last+ahead+1 < end; ahead++ {
		if pm := r.page(last + ahead + 1); pm.state != pageInvalid || !pm.isMissingAny(tp.rank) {
			break
		}
	}
	return ahead
}

// writeFault makes a page writable: valid first, then twinned. A write
// notice can land during the fault's own cost charges (interrupt
// handlers run mid-Advance); the loop re-validates until the page is
// simultaneously covered and twinned. A page homed here takes no twin:
// the window is the master copy, and nobody is owed a diff against it. A page never stored into is twinned by the zero
// page itself, which ownTwin replaces before anything writes into the twin.
func (tp *Proc) writeFault(pm *pageMeta) {
	for {
		if pm.state == pageInvalid {
			tp.readFault(pm.region, pm.id, pm.id)
		}
		if pm.state == pageWritable {
			return
		}
		start := tp.sp.Now()
		tp.stats.WriteFaults++
		tp.sp.Advance(FaultOverhead)
		if !tp.selfHomed(pm.id) {
			if pm.frame == nil {
				pm.twin = zeroPage[:]
			} else {
				pm.twin = append(tp.takeTwin(), pm.frame...)
			}
			tp.sp.Advance(sim.BytesTime(PageSize, MemcpyBandwidth))
			tp.stats.TwinsCreated++
		}
		pm.state = pageWritable
		tp.dirty = append(tp.dirty, pm.id)
		tp.stats.FaultTime += tp.sp.Now() - start
		tp.observe(event{kind: trace.KindWriteFault, start: start, dur: tp.sp.Now() - start, page: pm, peer: -1, bytes: PageSize})
		if pm.isMissingAny(tp.rank) {
			// A notice arrived mid-fault; fetch its diffs (they will be
			// applied to both data and twin) before writing proceeds.
			pm.state = pageInvalid
			continue
		}
		return
	}
}

// takeTwin returns an empty twin buffer: one handed back at an interval
// close if there is any. Else a rank's first twinSingles twins are nil
// (the append that fills each allocates it) and every later one is carved,
// with the twinChunk−1 after it, out of one allocation: a rank that twins
// a few dozen pages an interval allocates as before, and one that twins
// hundreds makes an eighth of the allocations past its first 64.
func (tp *Proc) takeTwin() []byte {
	n := len(tp.freeTwins)
	if n == 0 {
		if tp.twins < twinSingles {
			tp.twins++
			return nil
		}
		chunk := make([]byte, twinChunk*PageSize)
		for i := twinChunk - 1; i > 0; i-- {
			tp.freeTwins = append(tp.freeTwins, chunk[i*PageSize:i*PageSize:(i+1)*PageSize])
		}
		tp.twins += twinChunk
		return chunk[:0:PageSize]
	}
	twin := tp.freeTwins[n-1]
	tp.freeTwins = tp.freeTwins[:n-1]
	return twin[:0]
}

// A rank's first twinSingles twins are allocated one at a time, and every
// later one in a chunk of twinChunk (takeTwin).
const (
	twinSingles = 64
	twinChunk   = 8
)

// ownTwin gives a page twinned by the shared zero page a twin of its own,
// before anything writes into it: the one copy-on-write point.
func (tp *Proc) ownTwin(pm *pageMeta) {
	if pm.zeroTwin() {
		pm.twin = append(tp.takeTwin(), zeroPage[:]...)
	}
}

// diffFault is one page of a homeless read fault in flight: when its fault
// began, whether it is a readahead page, and whether a writer left it out
// of the current wave.
type diffFault struct {
	pm    *pageMeta
	began sim.Time
	ahead bool
	short bool
}

// diffFaultRange is the homeless read fault over the span [first, last] of
// region r's pages (DESIGN.md §4.3), and the ahead pages after it. A page
// never held starts as zeros: every store since is a diff this rank holds
// the notice of. The missing diffs come in waves, each at most one request
// frame of pages, until no faulted page misses a notice — one landed
// mid-fault included. The readahead pages follow the span's in the first
// wave only: one that wave leaves invalid stays so, for its own fault.
func (tp *Proc) diffFaultRange(r *Region, first, last, ahead int32) {
	start, applied := tp.sp.Now(), tp.stats.DiffBytesApplied
	faults := tp.diffBufs.faults[:0]
	for pg := first; pg <= last+ahead; pg++ {
		pm := r.page(pg)
		if pm.state != pageInvalid {
			continue
		}
		f := diffFault{pm: pm, began: tp.sp.Now(), ahead: pg > last}
		faults = append(faults, f)
		if !f.ahead {
			tp.stats.ReadFaults++
		}
		tp.sp.Advance(FaultOverhead)
		if !pm.haveCopy {
			pm.haveCopy = true
			tp.stats.ZeroFills++
		}
	}
	pages := len(faults)
	most := msg.DiffRangesWithin(tp.tr.MaxData())
	for len(faults) > 0 {
		tp.diffWave(first, last+ahead, faults[:min(len(faults), most)])
		again := 0
		for _, f := range faults {
			if f.pm.isMissingAny(tp.rank) {
				if !f.ahead {
					faults[again], again = f, again+1
				}
				continue
			}
			tp.promoteValid(f.pm)
			if f.ahead {
				tp.stats.Prefetched++
			} else {
				tp.observe(event{kind: trace.KindReadFault, start: f.began, dur: tp.sp.Now() - f.began, page: f.pm, peer: -1, bytes: PageSize})
			}
		}
		faults = faults[:again]
	}
	tp.diffBufs.faults = faults
	r.perPage = int(tp.stats.DiffBytesApplied-applied) / pages
	tp.stats.FaultTime += tp.sp.Now() - start
}

// diffWave asks each writer once, in one KDiffReq, for its missing diffs of
// the faulted pages, all writers in one scatter (DESIGN.md §14), each
// request granting its reply the frame budget the wave's width leaves it
// (Transport.ReplyFrames), and applies each page's diffs from all its
// writers together — or, if a capped reply left it out, none: one writer's
// diff without another's could break happens-before order. A reply answers
// a prefix of its request, so the lowest page is always answered and a
// wave completes.
func (tp *Proc) diffWave(first, last int32, faults []diffFault) {
	db := tp.diffBufs
	ranges := db.ranges[:0]
	for i := range faults {
		f := &faults[i]
		f.short = false
		for _, w := range f.pm.writers {
			if miss := w.missing(); int(w.proc) != tp.rank && len(miss) > 0 {
				ranges = append(ranges, msg.DiffRange{Page: f.pm.id, Proc: w.proc, FromTS: w.cover, ToTS: miss[len(miss)-1]})
			}
		}
	}
	// Writer-major: each writer's request is a sub-slice, its pages ascending.
	slices.SortStableFunc(ranges, func(a, b msg.DiffRange) int { return cmp.Compare(a.Proc, b.Proc) })
	db.ranges = ranges
	if len(ranges) == 0 { // pages nobody wrote: zeros, and no writer to ask
		return
	}
	writers := 0
	for j := 0; j < len(ranges); j = nextWriter(ranges, j) {
		writers++
	}
	budget := tp.tr.ReplyFrames(writers)
	pending := db.pends[:0]
	for j := 0; j < len(ranges); j = nextWriter(ranges, j) {
		ask := ranges[j:nextWriter(ranges, j)]
		tp.stats.DiffRequestsSent += int64(len(ask))
		db.req = msg.Message{Kind: msg.KDiffReq, DiffReqs: ask}
		db.req.SetBudget(budget)
		pending = append(pending, tp.tr.CallBegin(tp.sp, int(ask[0].Proc), &db.req))
	}
	db.pends = pending
	reps := tp.scatter(blocked("pages %d..%d (diffs from %d writers)", int(first), int(last), len(pending)), pending)
	all := db.diffs[:0]
	for k, j := 0, 0; j < len(ranges); k, j = k+1, nextWriter(ranges, j) {
		all = tp.takeDiffs(all, faults, ranges[j:nextWriter(ranges, j)], pending[k], reps[k])
	}
	slices.SortStableFunc(all, func(a, b msg.Diff) int { return cmp.Compare(a.Page, b.Page) })
	db.diffs = all
	for i, k := 0, 0; k < len(all); i++ { // every diff's page is a fault (takeDiffs)
		j := k
		for j < len(all) && all[j].Page == faults[i].pm.id {
			j++
		}
		if j > k && !faults[i].short {
			tp.applyDiffs(faults[i].pm, all[k:j])
		}
		k = j
	}
}

// takeDiffs appends one writer's reply to all, marks short each page of
// its request (ask) the reply left out, and observes one fetch per page
// answered: the page's bytes, the call's issue and completion times.
func (tp *Proc) takeDiffs(all []msg.Diff, faults []diffFault, ask []msg.DiffRange, pend substrate.Pending, rep *msg.Message) []msg.Diff {
	if rep.Kind != msg.KDiffReply {
		panic(fmt.Sprintf("tmk: bad diff reply %v", rep.Kind))
	}
	ds := rep.Diffs
	for _, dr := range ask {
		n, nbytes := 0, 0
		for ; n < len(ds) && ds[n].Page == dr.Page; n++ {
			nbytes += len(ds[n].Data)
		}
		switch {
		case n == 0 && len(ds) > 0: // a reply answers a prefix of the pages asked, in order
			panic("tmk: diff for wrong page")
		case n == 0:
			i, _ := slices.BinarySearchFunc(faults, dr.Page, func(f diffFault, pg int32) int { return cmp.Compare(f.pm.id, pg) })
			faults[i].short = true
			continue
		case ds[n-1].TS != dr.ToTS: // short of the newest interval asked, the fault would ask forever
			panic(fmt.Sprintf("tmk: rank %d: page %d: rank %d's diffs end before ts %d", tp.rank, dr.Page, dr.Proc, dr.ToTS))
		}
		tp.observe(event{kind: trace.KindDiffFetch, start: pend.Issued(), dur: pend.Completed() - pend.Issued(),
			page: tp.page(dr.Page), peer: pend.Dst(), bytes: nbytes, a: int(dr.FromTS), b: int(dr.ToTS)})
		all, ds = append(all, ds[:n]...), ds[n:]
	}
	if len(ds) > 0 {
		panic("tmk: diff for wrong page")
	}
	return all
}

// nextWriter returns the index of the first range past ranges[i]'s writer.
func nextWriter(ranges []msg.DiffRange, i int) int {
	j := i + 1
	for j < len(ranges) && ranges[j].Proc == ranges[i].Proc {
		j++
	}
	return j
}

// applyDiffs applies received diffs in a happens-before linear
// extension (vector-clock sum order). Every diff was requested past the
// copy's coverage; one the copy already covers would clobber newer writes
// the copy subsumes, so it is a protocol error.
func (tp *Proc) applyDiffs(pm *pageMeta, all []msg.Diff) {
	slices.SortStableFunc(all, func(a, b msg.Diff) int {
		ra, rb := tp.store.get(a.Proc, a.TS), tp.store.get(b.Proc, b.TS)
		if ra == nil || rb == nil {
			panic("tmk: diff for unknown interval")
		}
		return hbCompare(ra, rb)
	})
	tp.tr.DisableAsync(tp.sp)
	tp.ownTwin(pm)
	for _, d := range all {
		if d.Page != pm.id {
			panic("tmk: diff for wrong page")
		}
		if d.TS <= pm.coverOf(int(d.Proc)) {
			panic(fmt.Sprintf("tmk: rank %d: page %d: diff %d/%d already covered", tp.rank, pm.id, d.Proc, d.TS))
		}
		if err := ApplyDiff(pm.store(), d.Data); err != nil {
			panic(err)
		}
		cost := sim.BytesTime(len(d.Data), MemcpyBandwidth)
		if pm.twin != nil {
			// Keep the twin in sync so our eventual diff contains only
			// our own writes (multiple-writer protocol).
			if err := ApplyDiff(pm.twin, d.Data); err != nil {
				panic(err)
			}
			cost *= 2
		}
		tp.sp.Advance(cost)
		tp.observe(event{kind: trace.KindDiffApply, page: pm, peer: int(d.Proc), a: int(d.TS), bytes: len(d.Data)})
		tp.stats.DiffsApplied++
		tp.stats.DiffBytesApplied += int64(len(d.Data))
		pm.coverTo(int(d.Proc), d.TS)
	}
	tp.tr.EnableAsync(tp.sp)
}

// closeInterval ends the current interval if any pages were written:
// create write notices and (eagerly) the diffs, in page order, bump our
// clock, and log the interval. Homeless, each diff is kept for the run;
// home-based, it is shipped to the page's home as it is encoded
// (flushPage). Runs masked where required by callers — home-based, always.
func (tp *Proc) closeInterval() {
	if len(tp.dirty) == 0 {
		return
	}
	ts := tp.vc[tp.rank] + 1
	tp.vc[tp.rank] = ts
	// The record's copy of the dirty list, sorted, is what the loop walks:
	// a handler's own close, run inside an Advance below, starts over from
	// tp.dirty.
	pages := tp.store.add(int32(tp.rank), ts, tp.vc, tp.dirty).pages
	slices.Sort(pages)
	tp.stats.IntervalsCreated++

	for _, pg := range pages {
		pm := tp.page(pg)
		if pm.twin != nil {
			diff := appendDiff(tp.diffScratch, pm.twin, pm.bytes())
			if !tp.homeBased {
				// Kept before the Advance below, in which a handler's own
				// close can reuse the scratch.
				diff = tp.diffArena.keep(diff)
			}
			// Diff creation: scan twin vs page (two pages of memory traffic).
			tp.sp.Advance(sim.BytesTime(2*PageSize, DiffScanBandwidth) +
				sim.BytesTime(len(diff), MemcpyBandwidth))
			if tp.homeBased {
				if home := tp.HomeOf(pg); home != tp.rank { // else our copy is the home window
					tp.flushPage(pm, home, diff)
				}
			} else {
				tp.keepDiff(diffKey{page: pg, ts: ts}, diff)
			}
			tp.stats.DiffsCreated++
			tp.stats.DiffBytesCreated += int64(len(diff))
			tp.observe(event{kind: trace.KindDiffCreate, page: pm, peer: -1, a: int(ts), bytes: len(diff)})
			if pm.twin != nil { // else a handler's own close, run inside the Advance above, took it
				if !pm.zeroTwin() {
					tp.freeTwins = append(tp.freeTwins, pm.twin)
				}
				pm.twin = nil
			}
		} else if !tp.selfHomed(pg) {
			panic("tmk: dirty page without twin, and not self-homed")
		}
		pm.addNotice(tp.rank, ts)
		pm.coverTo(tp.rank, ts)
		// Write notices may have arrived while the page was dirty (it
		// stays writable under the multiple-writer protocol); if any are
		// still uncovered, the page must remain invalid, not readable.
		if pm.isMissingAny(tp.rank) {
			pm.state = pageInvalid
		} else {
			pm.state = pageReadOnly
		}
	}
	if tp.homeBased {
		// Every diff reaches its home before this function returns — and
		// the messages that make the interval visible elsewhere (barrier
		// arrive, lock grant) are sent strictly after. The homes hold the
		// data then, and no one asks a home-based writer for a diff.
		tp.finishFlush(ts)
	}
	tp.dirty = tp.dirty[:0]
}

// diffArena holds a homeless process's diffs, each kept for the run: a diff
// is copied into the unused tail of the current chunk, and a chunk too
// short for the next is left to the diffs in it and followed by one twice
// its size, from minDiffChunk up to maxDiffChunk (or the diff's size).
type diffArena struct {
	chunk []byte // unused tail of the current chunk
	size  int    // the current chunk's size
}

const (
	minDiffChunk = 512
	maxDiffChunk = 64 << 10
)

// keep returns a copy of d in the arena (nil if d is empty).
func (a *diffArena) keep(d []byte) []byte {
	if len(d) == 0 {
		return nil
	}
	if len(d) > len(a.chunk) {
		a.size = min(max(2*a.size, minDiffChunk), maxDiffChunk)
		a.chunk = make([]byte, max(a.size, len(d)))
	}
	out := a.chunk[:len(d):len(d)]
	copy(out, d)
	a.chunk = a.chunk[len(d):]
	return out
}

type diffKey struct {
	page int32
	ts   int32
}

// keepDiff is the only writer of myDiffs, so that diffBytes (the metadata
// gauge's retained-diff share) is the payload bytes in it.
func (tp *Proc) keepDiff(k diffKey, d []byte) {
	tp.myDiffs[k] = d
	tp.diffBytes += int64(len(d))
}

// applyIntervals merges received intervals: log them, deliver write
// notices (invalidating uncovered pages), and advance our vector clock.
func (tp *Proc) applyIntervals(ivs []msg.Interval) {
	for _, iv := range ivs {
		rec := tp.store.add(iv.Proc, iv.TS, VC(iv.VC), iv.Pages) // copies: the decoded lists are the transport's
		if rec == nil {
			continue
		}
		if tp.vc[rec.proc] < rec.ts {
			tp.vc[rec.proc] = rec.ts
		}
		if int(rec.proc) == tp.rank {
			continue // our own interval echoed back
		}
		for _, pg := range rec.pages {
			if pm := tp.mapped(pg); pm != nil { // else its region is not mapped here yet: mapRegion replays
				tp.deliverNotice(pm, rec)
			}
		}
	}
}

// deliverNotice files the write notice another rank's interval rec carries
// for pm, and invalidates the page if its copy does not cover it — unless
// we are the page's home: the writer's flush completed before its interval
// became visible (HLRC rule 1), so our copy already holds the data, and the
// notice is covered instead (rule 2).
func (tp *Proc) deliverNotice(pm *pageMeta, rec *intervalRec) {
	invalidated := 0
	if pm.addNotice(int(rec.proc), rec.ts) {
		if tp.selfHomed(pm.id) {
			pm.coverTo(int(rec.proc), rec.ts)
		} else if pm.state != pageInvalid {
			pm.state = pageInvalid
			tp.stats.Invalidations++
			invalidated = 1
		}
	}
	if tp.cluster.cfg.Trace == nil {
		return // wroteHere is the trace's alone, and costs a search of pm's writers
	}
	wroteHere := 0
	if pm.twin != nil || pm.state == pageWritable || pm.writer(tp.rank) != nil {
		wroteHere = 1
	}
	tp.observe(event{kind: trace.KindNotice, page: pm, peer: int(rec.proc), a: invalidated, b: wroteHere, c: int(rec.ts)})
}
