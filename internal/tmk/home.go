package tmk

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// Home-based lazy release consistency (HLRC) over a one-sided substrate.
//
// Every page has a home rank whose copy of the page is the RDMA window
// itself: remote writers deposit diffs straight into it with Put verbs,
// remote readers pull the whole page out of it with a Get verb. Two rules
// make this correct without any request handler on the page hot path:
//
//  1. Flush before synchronize. closeInterval waits for every home Put
//     to complete before the interval record can travel anywhere (the
//     barrier-arrive or lock-grant message is sent strictly after
//     closeInterval returns, and delivery is masked meanwhile). So if a
//     process has learned a write notice, the data behind that notice
//     has already been applied at the home.
//
//  2. Homes never invalidate their own pages. Incoming Puts keep the
//     home copy continuously current, so a notice for a self-homed page
//     only advances the coverage vector.
//
// A home Get therefore covers, at minimum, every notice known when it
// was posted — that snapshot is what the fault records in the coverage
// vector. Early visibility (a Put landing before the interval's notice
// does) exposes only data the application could not race on: programs
// are data-race-free, so a read of those words is ordered behind the
// writer's release by some synchronization chain, by which time the
// notice has arrived anyway.

// HomeOf returns the rank serving as page pg's home: its block of its
// region, the region's pages cut into n equal runs in rank order, so a rank
// that writes its own band of an array is the home of that band from the
// first epoch. Every rank knows each region's geometry from Distribute, so
// all ranks agree without a message (DESIGN.md §12.3).
func (tp *Proc) HomeOf(pg int32) int {
	r := tp.page(pg).region
	return int(pg-r.StartPage) * tp.n / int(r.NPages)
}

// selfHomed reports whether this rank's copy of pg is a master copy it may
// write in place: homed here.
func (tp *Proc) selfHomed(pg int32) bool { return tp.homeBased && tp.HomeOf(pg) == tp.rank }

// windowOff maps a page to its byte offset inside its region's window.
func windowOff(pm *pageMeta) int { return int(pm.id-pm.region.StartPage) * PageSize }

// waitVerbs resolves outstanding verbs with tp.call's abort contract: a
// target declared dead condemns the run (the watchdog owns the
// post-mortem), while a window fault is a protocol bug and panics.
func (tp *Proc) waitVerbs(on entity, verbs []substrate.PendingVerb) {
	tp.blockedOn = on
	if err := tp.os.WaitVerbs(tp.sp, verbs); err != nil {
		var pu *substrate.PeerUnreachableError
		if errors.As(err, &pu) {
			tp.sp.Exit()
		}
		panic(fmt.Sprintf("tmk: rank %d: one-sided %v: %v", tp.rank, on, err))
	}
	tp.blockedOn = entity{}
}

// noticeSnap records, per writer, the newest write notice known for the
// page right now. A home Get posted after this snapshot covers at least
// these timestamps (rule 1 above), so they are what homeApply credits to
// the coverage vector.
func (tp *Proc) noticeSnap(pm *pageMeta) VC {
	snap := make(VC, tp.n)
	for _, w := range pm.writers {
		snap[w.proc] = w.notices[len(w.notices)-1]
	}
	return snap
}

// homeApply merges a fetched home page into the local copy and credits
// the pre-fetch notice snapshot. With a twin present (a writable page
// re-fetching after a concurrent notice), the local interval's own words
// — those where data and twin differ — are preserved, everything else
// takes the home's value, and the twin rebases onto the home copy so the
// eventual diff still contains exactly this interval's writes (the
// multiple-writer protocol, one-sided edition).
func (tp *Proc) homeApply(pm *pageMeta, data []byte, snap VC) {
	if len(data) != PageSize {
		panic(fmt.Sprintf("tmk: rank %d: home get of page %d returned %d bytes", tp.rank, pm.id, len(data)))
	}
	frame := pm.store()
	if pm.twin != nil {
		tp.ownTwin(pm)
		// The local interval's words, encoded into the scratch, go back on
		// top of the home copy — all before the Advance below, in which a
		// handler's own close can reuse the scratch.
		local := appendDiff(tp.diffScratch, pm.twin, frame)
		copy(frame, data)
		copy(pm.twin, data)
		if err := ApplyDiff(frame, local); err != nil {
			panic(err)
		}
		// Word-compare scan over twin+data, then up to two page copies.
		tp.sp.Advance(sim.BytesTime(2*PageSize, DiffScanBandwidth) +
			sim.BytesTime(2*PageSize, MemcpyBandwidth))
	} else {
		copy(frame, data)
		tp.sp.Advance(sim.BytesTime(PageSize, MemcpyBandwidth))
	}
	pm.haveCopy = true
	for q, ts := range snap {
		if ts > 0 {
			pm.coverTo(q, ts)
		}
	}
}

// homeGet is one page of a home-based read fault in flight: the notice
// snapshot its Get was posted under, when the fault and that Get began, and
// whether it is a readahead page.
type homeGet struct {
	pm            *pageMeta
	snap          VC
	began, posted sim.Time
	ahead         bool
}

// postHomeGet posts the whole-page read of pm from its home.
func (tp *Proc) postHomeGet(pm *pageMeta, began sim.Time) (homeGet, substrate.PendingVerb) {
	home := tp.HomeOf(pm.id)
	if home == tp.rank {
		// Rule 2: deliverNotice covers a notice for a page homed here, never
		// invalidates it, so it cannot fault (and there is no Get to self).
		panic(fmt.Sprintf("tmk: rank %d: read fault on page %d, which is homed here", tp.rank, pm.id))
	}
	tp.stats.PageFetches++
	tp.stats.HomeFetches++
	tp.stats.HomeFetchBytes += PageSize
	g := homeGet{pm: pm, snap: tp.noticeSnap(pm), began: began, posted: tp.sp.Now()}
	return g, tp.os.PostGet(tp.sp, home, pm.region.ID, windowOff(pm), PageSize)
}

// homeFaultRange is the home-based read fault, over the span [first, last]
// of region r's pages and the ahead pages after it: every invalid one is
// RDMA-read whole from its home and merged. All the Gets are posted before
// any is awaited, so a span costs max-RTT instead of sum-of-RTTs (the
// one-sided analogue of the homeless scatter-gather diff fetch). A notice
// can land while a Get is in flight; the home already has the flushed data
// (rule 1), so the page goes round again: one more Get, the same fault — a
// readahead page instead stays invalid, for its own fault.
func (tp *Proc) homeFaultRange(r *Region, first, last, ahead int32) {
	start := tp.sp.Now()
	for pg := first; pg <= last+ahead; pg++ {
		pm := r.page(pg)
		if pm.state != pageInvalid {
			continue
		}
		began := tp.sp.Now()
		if pg <= last {
			tp.stats.ReadFaults++
		}
		tp.sp.Advance(FaultOverhead)
		g, pv := tp.postHomeGet(pm, began)
		g.ahead = pg > last
		tp.homeGets, tp.homeVerbs = append(tp.homeGets, g), append(tp.homeVerbs, pv)
	}
	for len(tp.homeGets) > 0 {
		tp.waitVerbs(blocked("pages %d..%d (%d home gets)", int(first), int(last+ahead), len(tp.homeVerbs)), tp.homeVerbs)
		again := 0
		for i, g := range tp.homeGets {
			pv := tp.homeVerbs[i]
			tp.homeApply(g.pm, pv.Data(), g.snap)
			tp.observe(event{kind: trace.KindHomeFetch, start: g.posted, dur: tp.sp.Now() - g.posted, page: g.pm, peer: pv.Dst(), bytes: PageSize})
			if g.pm.isMissingAny(tp.rank) {
				if !g.ahead {
					tp.homeGets[again], tp.homeVerbs[again] = tp.postHomeGet(g.pm, g.began)
					again++
				}
				continue
			}
			tp.promoteValid(g.pm)
			if g.ahead {
				tp.stats.Prefetched++
			} else {
				tp.observe(event{kind: trace.KindReadFault, start: g.began, dur: tp.sp.Now() - g.began, page: g.pm, peer: -1, bytes: PageSize})
			}
		}
		tp.homeGets, tp.homeVerbs = tp.homeGets[:again], tp.homeVerbs[:again]
	}
	tp.stats.FaultTime += tp.sp.Now() - start
}

// promoteValid moves a just-validated invalid page to its resting state.
func (tp *Proc) promoteValid(pm *pageMeta) {
	if pm.state == pageInvalid {
		if pm.twin != nil {
			pm.state = pageWritable
		} else {
			pm.state = pageReadOnly
		}
	}
}

// homePut is one packed write verb of a flush: the diff runs of same-home
// pages of one region, each a segment at its byte range in the window.
type homePut struct {
	home    int
	window  int32
	segs    []substrate.PutSeg
	payload int
	posted  bool
}

// homePacker packs an interval's diffs into as few Puts as the frame
// limit allows: one open frame per home, closed when the next page
// belongs to another region or its segments would push the frame (sized
// by the transport's PutSize) past limit. No single page can: 512 runs
// is the most a page encodes, ≈6 KB of segments. A process keeps one and
// reuses its frames, map and scratch interval to interval (reset).
type homePacker struct {
	limit int
	size  func(nseg, payload int) int
	puts  []homePut
	open  map[int]int        // home → index of its open frame in puts
	page  []substrate.PutSeg // scratch: the current page's segments
}

// add appends one page's diff to home's open frame: each run a segment of
// data, the page's bytes the diff was taken from, at the run's offset from
// base, the page's offset in the window. It returns the payload bytes (an
// empty diff adds nothing) and the index of the frame the page closed to
// make room — complete now, ready to post — or -1.
func (hp *homePacker) add(home int, window int32, base int, diff, data []byte) (payload, closed int) {
	hp.page = hp.page[:0]
	for off := 0; off < len(diff); {
		start := 4 * int(binary.LittleEndian.Uint16(diff[off:]))
		n := 4 * int(binary.LittleEndian.Uint16(diff[off+2:]))
		off += 4 + n
		hp.page = append(hp.page, substrate.PutSeg{Off: base + start, Data: data[start : start+n]})
		payload += n
	}
	closed = -1
	if len(hp.page) == 0 {
		return 0, closed
	}
	i, ok := hp.open[home]
	if !ok || hp.puts[i].window != window ||
		hp.size(len(hp.puts[i].segs)+len(hp.page), hp.puts[i].payload+payload) > hp.limit {
		if ok {
			closed = i
		}
		i = len(hp.puts)
		hp.open[home] = i
		var segs []substrate.PutSeg
		if i < cap(hp.puts) { // reuse the segment slice an earlier interval left there
			segs = hp.puts[:i+1][i].segs[:0]
		}
		hp.puts = append(hp.puts, homePut{home: home, window: window, segs: segs})
	}
	hp.puts[i].segs = append(hp.puts[i].segs, hp.page...)
	hp.puts[i].payload += payload
	return payload, closed
}

// reset empties the packer for the next interval, keeping its storage.
func (hp *homePacker) reset() {
	hp.puts = hp.puts[:0]
	clear(hp.open)
}

// homeFlush is one interval's flush in progress (home-based): the packer,
// the Puts posted and the pages handed to it, kept on the process and
// reused interval to interval.
type homeFlush struct {
	packer homePacker
	verbs  []substrate.PendingVerb
	pages  []flushedPage
}

// flushedPage is one page of a flush: its home, payload bytes and when its
// diff was handed over.
type flushedPage struct {
	pm    *pageMeta
	home  int
	bytes int
	start sim.Time
}

// flushPage ships one dirty page's diff toward its home window — the
// flush-before-synchronize half of HLRC, page by page as closeInterval
// encodes them. The wire carries only changed words, taken straight out
// of the page (a Put copies its segments as it is posted, and closeInterval
// runs masked, so nothing writes the page before then), and carries them in
// few frames: every diff run is one segment of a scatter Put, and a Put
// holds as many pages' segments as fit the GM size class a dense
// single-page Put occupies anyway. A frame is posted the moment a page
// closes it, so it travels while the next pages encode. Runs masked,
// which is legal: completions arrive on the dedicated CQ port, not the
// async request port.
//
// No coverage filtering is needed on this path: the home is a single
// ordered application point — Puts from one interval complete before
// the interval is visible, and a reader always takes the whole current
// home page — so there is no "diff subsumed by a concurrently fetched
// copy" hazard to filter.
func (tp *Proc) flushPage(pm *pageMeta, home int, diff []byte) {
	hf := &tp.flush
	nbytes, closed := hf.packer.add(home, pm.region.ID, windowOff(pm), diff, pm.bytes())
	if closed >= 0 {
		tp.postPut(closed)
	}
	hf.pages = append(hf.pages, flushedPage{pm: pm, home: home, bytes: nbytes, start: tp.sp.Now()})
	tp.stats.HomeFlushes++
	tp.stats.HomeFlushBytes += int64(nbytes)
}

// postPut posts the flush's packed frame i.
func (tp *Proc) postPut(i int) {
	hf := &tp.flush
	put := &hf.packer.puts[i]
	put.posted = true
	hf.verbs = append(hf.verbs, tp.os.PostPut(tp.sp, put.home, put.window, put.segs...))
}

// finishFlush posts the frames interval ts left open and waits for every
// Put of the interval to complete: the homes hold its data when it returns,
// which is when each page's flush is observed to end.
func (tp *Proc) finishFlush(ts int32) {
	hf := &tp.flush
	for i := range hf.packer.puts {
		if !hf.packer.puts[i].posted {
			tp.postPut(i)
		}
	}
	if len(hf.verbs) > 0 {
		tp.waitVerbs(blocked("interval %d (home flush, %d puts)", int(ts), len(hf.verbs)), hf.verbs)
	}
	for _, f := range hf.pages {
		tp.observe(event{kind: trace.KindHomeFlush, start: f.start, dur: tp.sp.Now() - f.start, page: f.pm, peer: f.home, bytes: f.bytes})
	}
	hf.packer.reset()
	hf.verbs, hf.pages = hf.verbs[:0], hf.pages[:0]
}
