package tmk

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// Test-only exports for the external (tmk_test) tests in this directory.

// scanMetaGauge is metaGauge as it was before the gauge became three
// maintained counters — a walk over every retained diff, interval record
// and notice list. It stays as the oracle the counters are held to.
func (tp *Proc) scanMetaGauge() int64 {
	var total int64
	for _, d := range tp.myDiffs {
		total += int64(len(d))
	}
	tp.store.all(func(rec *intervalRec) {
		total += intervalRecBytes(rec)
	})
	for _, pm := range tp.pages {
		if pm == nil {
			continue
		}
		for _, w := range pm.writers {
			total += int64(4 * len(w.notices))
		}
	}
	return total
}

// CheckMetaGauge holds tp's maintained gauge to the full scan from now
// on, every time tp masks asynchronous delivery — which every barrier
// crossing does before it closes its interval, as do lock grants, diff
// application and every store into shared memory. It reports a mismatch
// through fail and counts the comparisons in *checks.
func (tp *Proc) CheckMetaGauge(fail func(format string, args ...any), checks *GaugeChecks) {
	tp.tr = &gaugeChecked{Transport: tp.tr, tp: tp, fail: fail, checks: checks}
}

// GaugeChecks counts CheckMetaGauge's comparisons, and among them the
// Falls: a maintained gauge reading below the same rank's previous one,
// which only the decrementing side of the counters can cause.
type GaugeChecks struct{ Comparisons, Falls int }

type gaugeChecked struct {
	substrate.Transport
	tp     *Proc
	fail   func(format string, args ...any)
	checks *GaugeChecks
	last   int64 // the previous reading
}

func (g *gaugeChecked) DisableAsync(p *sim.Proc) {
	g.checks.Comparisons++
	got, want := g.tp.metaGauge(), g.tp.scanMetaGauge()
	if got != want {
		g.fail("rank %d gen %d at %v: maintained gauge %d, full scan %d (diffs %d, intervals %d, notices %d)",
			g.tp.rank, g.tp.gen, p.Now(), got, want, g.tp.diffBytes, g.tp.store.bytes, g.tp.notices.live)
	}
	if got < g.last {
		g.checks.Falls++
	}
	g.last = got
	g.Transport.DisableAsync(p)
}

// NoticeMidGet arms a one-shot injection on a home-based tp: the next time
// it waits for one-sided verbs — its home Gets posted, none complete — a
// write notice for page pg, from writer's next interval, is delivered
// first: what a lock grant or barrier arrival handled mid-fault does.
// writer must be a rank that closes no interval of its own afterwards.
func (tp *Proc) NoticeMidGet(pg int32, writer int) {
	tp.os = &noticeMidGet{OneSided: tp.os, tp: tp, pg: pg, writer: writer}
}

type noticeMidGet struct {
	substrate.OneSided
	tp     *Proc
	pg     int32
	writer int
	done   bool
}

func (n *noticeMidGet) WaitVerbs(p *sim.Proc, verbs []substrate.PendingVerb) error {
	if !n.done {
		n.done = true
		vc := n.tp.vc.Clone()
		vc[n.writer]++
		n.tp.applyIntervals([]msg.Interval{{Proc: int32(n.writer), TS: vc[n.writer], VC: vc.Ints(), Pages: []int32{n.pg}}})
	}
	return n.OneSided.WaitVerbs(p, verbs)
}

// Generation is 0 for an original process, 1 for one a restart launched.
func (tp *Proc) Generation() int { return tp.gen }

// FrameCensus counts, over every region mapped on tp, the pages, the frames
// their stores have carved, the frames the region's chunks hold (carved or
// not yet), and the pages tp touched: wrote (an own write notice, or writable
// now), or applied a diff or a fetched copy to (another writer's interval
// covered). ChunkBound is Touched rounded up to whole chunks, region by
// region.
type FrameCensus struct{ Pages, Frames, Chunked, Touched, ChunkBound int }

func (tp *Proc) FrameCensus() (fc FrameCensus) {
	for _, r := range tp.regions {
		if r == nil {
			continue
		}
		touched := 0
		for i := range r.pages {
			pm := &r.pages[i]
			hit := pm.state == pageWritable || pm.writer(tp.rank) != nil
			for _, w := range pm.writers {
				hit = hit || (int(w.proc) != tp.rank && w.cover > 0)
			}
			if hit {
				touched++
			}
		}
		frames := int(r.NPages - r.unbacked)
		fc.Pages += int(r.NPages)
		fc.Frames += frames
		fc.Chunked += frames + len(r.chunk)/PageSize
		fc.Touched += touched
		fc.ChunkBound += min((touched+frameChunk-1)/frameChunk*frameChunk, int(r.NPages))
	}
	return fc
}

// HasFrame reports whether page pg of r (by offset) has storage of its own
// on tp, and HasCopy whether tp holds a copy of it at all.
func (tp *Proc) HasFrame(r *Region, pg int) bool { return r.pages[pg].frame != nil }
func (tp *Proc) HasCopy(r *Region, pg int) bool  { return r.pages[pg].haveCopy }

// Valid reports whether page pg of r (by offset) reads on tp without a fault.
func (tp *Proc) Valid(r *Region, pg int) bool { return r.pages[pg].state != pageInvalid }

// TwinOnly write-faults page pg of r and stores nothing: it returns the twin
// the fault took.
func (tp *Proc) TwinOnly(r *Region, pg int) []byte {
	tp.writeFault(&r.pages[pg])
	return r.pages[pg].twin
}

// DropFreeTwins empties tp's free list of twins, so that the next write
// faults find none to reuse.
func (tp *Proc) DropFreeTwins() { tp.freeTwins = nil }

// ZeroPageIsZero reports whether the page every frame-less copy reads as is
// still all zeros.
func ZeroPageIsZero() bool { return zeroPage == [PageSize]byte{} }

// Testbed is the per-layer configuration a cluster builds its sockets and
// substrates from; a test tunes it through NewTunedCluster — a shorter
// retransmission timer, a smaller retry budget, socket loss, a scarcer
// prepost ring.
type Testbed = *testbed

// NewTunedCluster is NewCluster with tune (nil: none) applied to the
// testbed before anything is built.
func NewTunedCluster(cfg Config, tune func(Testbed)) *Cluster { return newCluster(cfg, tune) }
