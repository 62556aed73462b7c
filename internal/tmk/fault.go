package tmk

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// readFault makes an invalid page valid. Home-based, that is the one-page
// case of homeFaultRange. Homeless: a page we never had a copy of starts
// as zeros — every region starts zeroed, and every store since is a diff
// this rank holds the write notice of. Then every missing diff is fetched
// and applied in happens-before order.
func (tp *Proc) readFault(pm *pageMeta) {
	if tp.homeBased {
		tp.homeFaultRange(pm.region, pm.id, pm.id)
		return
	}
	start := tp.sp.Now()
	tp.observe(event{kind: evReadFaultBegin, page: pm})
	tp.stats.ReadFaults++
	tp.sp.Advance(tp.cpu.FaultOverhead)
	if !pm.haveCopy {
		pm.haveCopy = true
		tp.stats.ZeroFills++
	}
	tp.chaseDiffs(pm)
	tp.promoteValid(pm)
	tp.stats.FaultTime += tp.sp.Now() - start
	tp.observe(event{kind: evReadFault, start: start, dur: tp.sp.Now() - start, page: pm, peer: -1, bytes: PageSize})
}

// writeFault makes a page writable: valid first, then twinned. A write
// notice can land during the fault's own cost charges (interrupt
// handlers run mid-Advance); the loop re-validates until the page is
// simultaneously covered and twinned. A page homed here under migrating
// placement takes no twin: the window is the master copy, and nobody is
// owed a diff against it.
func (tp *Proc) writeFault(pm *pageMeta) {
	for {
		if pm.state == pageInvalid {
			tp.readFault(pm)
		}
		if pm.state == pageWritable {
			return
		}
		start := tp.sp.Now()
		tp.stats.WriteFaults++
		tp.sp.Advance(tp.cpu.FaultOverhead)
		if !tp.selfHomed(pm.id) {
			var twin []byte // nil: the free list is empty, append allocates
			if n := len(tp.freeTwins); n > 0 {
				twin, tp.freeTwins = tp.freeTwins[n-1], tp.freeTwins[:n-1]
			}
			pm.twin = append(twin[:0], pm.bytes()...)
			tp.sp.Advance(sim.BytesTime(PageSize, tp.cpu.MemcpyBandwidth))
			tp.stats.TwinsCreated++
		}
		pm.state = pageWritable
		tp.dirty = append(tp.dirty, pm.id)
		tp.stats.FaultTime += tp.sp.Now() - start
		tp.observe(event{kind: evWriteFault, start: start, dur: tp.sp.Now() - start, page: pm, peer: -1, bytes: PageSize})
		if pm.isMissingAny(tp.rank) {
			// A notice arrived mid-fault; fetch its diffs (they will be
			// applied to both data and twin) before writing proceeds.
			pm.state = pageInvalid
			continue
		}
		return
	}
}

// missingRanges groups the page's uncovered write notices by writer, into
// the fault path's scratch.
func (tp *Proc) missingRanges(pm *pageMeta) []msg.DiffRange {
	out := tp.diffBufs.ranges[:0]
	for q := 0; q < tp.n; q++ {
		if q == tp.rank {
			continue
		}
		miss := pm.missingFrom(q)
		if len(miss) == 0 {
			continue
		}
		out = append(out, msg.DiffRange{
			Page:   pm.id,
			Proc:   int32(q),
			FromTS: pm.cover[q],
			ToTS:   miss[len(miss)-1],
		})
	}
	tp.diffBufs.ranges = out
	return out
}

// chaseDiffs fetches and applies pm's missing diffs until none is missing —
// new write notices can arrive while replies are awaited — and reports
// whether there were any.
func (tp *Proc) chaseDiffs(pm *pageMeta) (fetched bool) {
	for {
		missing := tp.missingRanges(pm)
		if len(missing) == 0 {
			return fetched
		}
		fetched = true
		tp.fetchDiffs(pm, missing)
	}
}

// fetchDiffs requests the missing diffs and applies everything received
// in a happens-before linear extension. The requests are scattered — one
// batched message per writer, a wave of them transmitted before any reply
// is awaited — so a k-writer fault costs max-RTT instead of sum-of-RTTs.
// A wave is every range, unless Config.DiffFetchWidth caps it (DESIGN.md
// §14.2; 1 is the serial sum-of-RTTs baseline). Each range targets a
// distinct writer (missingRanges emits one per writer), so chunking ranges
// chunks outstanding calls.
func (tp *Proc) fetchDiffs(pm *pageMeta, ranges []msg.DiffRange) {
	w := len(ranges)
	if width := tp.cluster.cfg.DiffFetchWidth; width > 0 {
		w = min(w, width)
	}
	all := tp.diffBufs.diffs[:0]
	for i := 0; i < len(ranges); i += w {
		pending := tp.beginDiffFetches(tp.diffBufs.pends[:0], pm, ranges[i:min(i+w, len(ranges))])
		tp.diffBufs.pends = pending
		reps := tp.scatter(blocked("page %d (diffs from %d writers)", int(pm.id), len(pending)), pending)
		all = tp.diffsFromReplies(all, pm, pending, reps)
	}
	tp.diffBufs.diffs = all
	tp.applyDiffs(pm, all)
	for _, dr := range ranges {
		// A writer's reply ends at the newest interval asked for; short of
		// it, chaseDiffs would ask again forever.
		if pm.cover[dr.Proc] < dr.ToTS {
			panic(fmt.Sprintf("tmk: rank %d: page %d: rank %d's diffs end before ts %d", tp.rank, pm.id, dr.Proc, dr.ToTS))
		}
	}
}

// beginDiffFetches scatters the diff requests: one KDiffReq per range —
// per writer, that is — each transmitted without waiting for the previous
// reply, and appends their calls to pending. The request is scratch:
// CallBegin encodes it before it returns.
func (tp *Proc) beginDiffFetches(pending []substrate.Pending, pm *pageMeta, ranges []msg.DiffRange) []substrate.Pending {
	for _, dr := range ranges {
		tp.observe(event{kind: evDiffRequest, page: pm, peer: int(dr.Proc), a: int(dr.FromTS), b: int(dr.ToTS)})
	}
	for _, dr := range ranges {
		tp.stats.DiffRequestsSent++
		tp.diffBufs.reqRange[0] = dr
		tp.diffBufs.req = msg.Message{Kind: msg.KDiffReq, DiffReqs: tp.diffBufs.reqRange[:]}
		pending = append(pending, tp.tr.CallBegin(tp.sp, int(dr.Proc), &tp.diffBufs.req))
	}
	return pending
}

// diffsFromReplies validates the replies gathered for scattered diff
// requests (accepted in any arrival order), appends their diffs to all
// and observes one fetch per pending, attributed to its writer and
// bounded by the issue and completion times the transport recorded.
func (tp *Proc) diffsFromReplies(all []msg.Diff, pm *pageMeta, pending []substrate.Pending, reps []*msg.Message) []msg.Diff {
	for i, rep := range reps {
		if rep.Kind != msg.KDiffReply {
			panic(fmt.Sprintf("tmk: bad diff reply %v", rep.Kind))
		}
		nbytes := 0
		for _, d := range rep.Diffs {
			nbytes += len(d.Data)
		}
		pend := pending[i]
		tp.observe(event{kind: evDiffFetch, start: pend.Issued(), dur: pend.Completed() - pend.Issued(),
			page: pm, peer: pend.Dst(), bytes: nbytes})
		all = append(all, rep.Diffs...)
	}
	return all
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
		switch {
		case hbBefore(ra, rb):
			return -1
		case hbBefore(rb, ra):
			return 1
		}
		return 0
	})
	tp.tr.DisableAsync(tp.sp)
	for _, d := range all {
		if d.Page != pm.id {
			panic("tmk: diff for wrong page")
		}
		if d.TS <= pm.cover[d.Proc] {
			panic(fmt.Sprintf("tmk: rank %d: page %d: diff %d/%d already covered", tp.rank, pm.id, d.Proc, d.TS))
		}
		if err := ApplyDiff(pm.store(), d.Data); err != nil {
			panic(err)
		}
		cost := sim.BytesTime(len(d.Data), tp.cpu.MemcpyBandwidth)
		if pm.twin != nil {
			// Keep the twin in sync so our eventual diff contains only
			// our own writes (multiple-writer protocol).
			if err := ApplyDiff(pm.twin, d.Data); err != nil {
				panic(err)
			}
			cost *= 2
		}
		tp.sp.Advance(cost)
		tp.observe(event{kind: evDiffApply, page: pm, peer: int(d.Proc), a: int(d.TS), bytes: len(d.Data)})
		tp.stats.DiffsApplied++
		tp.stats.DiffBytesApplied += int64(len(d.Data))
		pm.cover[d.Proc] = d.TS
	}
	tp.tr.EnableAsync(tp.sp)
}

// closeInterval ends the current interval if any pages were written:
// create write notices and (eagerly) the diffs, bump our clock, and log
// the interval. Runs masked where required by callers.
func (tp *Proc) closeInterval() {
	if len(tp.dirty) == 0 {
		return
	}
	ts := tp.vc[tp.rank] + 1
	tp.vc[tp.rank] = ts
	pages := make([]int32, len(tp.dirty))
	copy(pages, tp.dirty)
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	rec := &intervalRec{proc: int32(tp.rank), ts: ts, vc: tp.vc.Clone(), pages: pages}
	tp.store.add(rec)
	tp.stats.IntervalsCreated++

	for _, pg := range tp.dirty {
		pm := tp.page(pg)
		if pm.twin != nil {
			// Diff creation: scan twin vs page (two pages of memory traffic).
			diff := append([]byte(nil), appendDiff(tp.diffScratch, pm.twin, pm.bytes())...)
			tp.sp.Advance(sim.BytesTime(2*PageSize, tp.cpu.DiffScanBandwidth) +
				sim.BytesTime(len(diff), tp.cpu.MemcpyBandwidth))
			tp.keepDiff(diffKey{page: pg, ts: ts}, diff)
			tp.stats.DiffsCreated++
			tp.stats.DiffBytesCreated += int64(len(diff))
			tp.observe(event{kind: evDiffCreate, page: pm, peer: -1, a: int(ts), bytes: len(diff)})
			if pm.twin != nil { // else a handler's own close, run inside the Advance above, took it
				tp.freeTwins = append(tp.freeTwins, pm.twin)
				pm.twin = nil
			}
		} else if !tp.selfHomed(pg) {
			panic("tmk: dirty page without twin, and not self-homed")
		}
		pm.cover[tp.rank] = ts
		pm.addNotice(tp.rank, ts)
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
		// HLRC flush: every diff reaches its home before this function
		// returns — and the messages that make the interval visible
		// elsewhere (barrier arrive, lock grant) are sent strictly after.
		tp.flushHomeDiffs(ts, pages)
		// The homes hold the data now, and no one asks a home-based
		// writer for a diff.
		for _, pg := range pages {
			tp.dropDiff(diffKey{page: pg, ts: ts})
		}
	}
	tp.dirty = tp.dirty[:0]
}

type diffKey struct {
	page int32
	ts   int32
}

// keepDiff and dropDiff are the only writers of myDiffs, so that diffBytes
// (the metadata gauge's retained-diff share) is the payload bytes in it.
func (tp *Proc) keepDiff(k diffKey, d []byte) {
	tp.myDiffs[k] = d
	tp.diffBytes += int64(len(d))
}

func (tp *Proc) dropDiff(k diffKey) {
	tp.diffBytes -= int64(len(tp.myDiffs[k]))
	delete(tp.myDiffs, k)
}

// applyIntervals merges received intervals: log them, deliver write
// notices (invalidating uncovered pages), and advance our vector clock.
func (tp *Proc) applyIntervals(ivs []msg.Interval) {
	for _, iv := range ivs {
		rec := fromWire(iv)
		if !tp.store.add(rec) {
			continue
		}
		tp.stats.IntervalsLearned++
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
	invalidated := false
	if pm.addNotice(int(rec.proc), rec.ts) {
		if tp.homeBased && tp.HomeOf(pm.id) == tp.rank {
			if pm.cover[rec.proc] < rec.ts {
				pm.cover[rec.proc] = rec.ts
			}
		} else if pm.state != pageInvalid {
			pm.state = pageInvalid
			tp.stats.Invalidations++
			invalidated = true
		}
	}
	tp.observe(event{kind: evNotice, page: pm, peer: int(rec.proc), invalidated: invalidated,
		wroteHere: pm.twin != nil || pm.state == pageWritable || len(pm.notices[tp.rank]) > 0})
}
