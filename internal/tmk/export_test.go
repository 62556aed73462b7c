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
		for _, lst := range pm.notices {
			total += int64(4 * len(lst))
		}
	}
	return total
}

// CheckMetaGauge holds tp's maintained gauge to the full scan from now
// on, every time tp masks asynchronous delivery — which every barrier
// crossing does before it closes its interval, as do lock grants, diff
// application and every store into shared memory. It reports a mismatch
// through fail and counts the comparisons in *checks.
func (tp *Proc) CheckMetaGauge(fail func(format string, args ...any), checks *int) {
	tp.tr = gaugeChecked{tp.tr, tp, fail, checks}
}

type gaugeChecked struct {
	substrate.Transport
	tp     *Proc
	fail   func(format string, args ...any)
	checks *int
}

func (g gaugeChecked) DisableAsync(p *sim.Proc) {
	*g.checks++
	if got, want := g.tp.metaGauge(), g.tp.scanMetaGauge(); got != want {
		g.fail("rank %d gen %d at %v: maintained gauge %d, full scan %d (diffs %d, intervals %d, notices %d)",
			g.tp.rank, g.tp.gen, p.Now(), got, want, g.tp.diffBytes, g.tp.store.bytes, g.tp.notices.live)
	}
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

// Generation is 0 for an original process, ≥ 1 for one restored from a
// checkpoint.
func (tp *Proc) Generation() int { return tp.gen }
