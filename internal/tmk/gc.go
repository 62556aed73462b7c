package tmk

import "fmt"

// Metadata garbage collection (DESIGN.md §15.4). TreadMarks' protocol
// metadata — retained diffs, interval records, and write notices — grows
// without bound on a long run: every interval a rank closes pins its
// diffs until every other rank has incorporated them, and nothing in the
// base protocol ever confirms that. The paper's TreadMarks inherits the
// original system's barrier-time GC, reproduced here:
//
//  1. Every barrier arrival piggybacks the rank's metadata gauge in the
//     message's fixed Page field (zero wire bytes; zero with GC off).
//  2. The root — armed/high-water (Config.MetaGC) hysteresis in barrierState —
//     orders a GC epoch by piggybacking the decision on the releases, so
//     the cluster decides uniformly at a full barrier.
//  3. Each rank validates every page copy it holds: all missing diffs
//     are fetched now, while their writers still retain them.
//  4. A nested fence (gcBarrier, guarded by Proc.inGC against recursion)
//     confirms every rank is covered before anyone prunes.
//  5. Everything up to the barrier vector clock V is pruned: own diffs
//     with ts ≤ V[self], interval records with ts ≤ V[proc], and write
//     notices ≤ V. A page this rank holds no copy of, once the prune
//     reaches one of its notices, can no longer be rebuilt from zeros and
//     its noticed diffs: it is marked pruned, its first fault fetches a
//     full copy instead (the only path that still does), and it keeps its
//     latest writer's newest notice as that fetch's hint. The hinted fetch
//     is safe post-GC: every copy-holding rank validated in step 3, so any
//     full-page reply covers everything pruned.
//
// The nested fence is what makes step 5 sound: without it a fast rank
// could prune diffs a slow rank's step-3 validation still needs.

// gcBarrier is the reserved id of the nested GC fence (one below the
// implicit shutdown barrier).
const gcBarrier = finalBarrier - 1

// intervalRecBytes approximates one interval record's footprint for the
// metadata gauge: fixed header plus the vector clock and page list.
func intervalRecBytes(rec *intervalRec) int64 {
	return int64(16 + 4*len(rec.vc) + 4*len(rec.pages))
}

// metaGauge is this rank's protocol metadata in bytes: retained diff
// payloads, interval records, and write notices — each a counter kept by
// the code that adds to and prunes its structure (keepDiff and dropDiff,
// intervalStore, noticePool), so a barrier reads it for free.
func (tp *Proc) metaGauge() int64 {
	return tp.diffBytes + tp.store.bytes + 4*tp.notices.live
}

// runMetaGC executes one GC epoch; called at the tail of a barrier whose
// release carried the root's GC order. All compute ranks run it for the
// same crossing, so the nested fence lines up cluster-wide.
func (tp *Proc) runMetaGC() {
	tp.inGC = true
	defer func() { tp.inGC = false }()
	start := tp.sp.Now()
	tp.stats.GCEpochs++

	// Step 3: validate every held copy, in page-id order.
	for _, pm := range tp.pages {
		if pm != nil && pm.haveCopy && tp.chaseDiffs(pm) {
			tp.stats.GCValidations++
		}
	}

	// Step 4: nobody prunes until everybody is covered.
	tp.Barrier(gcBarrier)

	// Step 5: prune through the barrier vector clock.
	v := tp.lastBarrierVC
	for k := range tp.myDiffs {
		if k.ts <= v[tp.rank] {
			tp.dropDiff(k)
			tp.stats.GCDiffsPruned++
		}
	}
	tp.stats.GCIntervalsPruned += int64(tp.store.pruneThrough(v))
	for _, pm := range tp.pages {
		if pm == nil {
			continue
		}
		pruned, err := pm.pruneNotices(v)
		if err != nil {
			panic(fmt.Sprintf("tmk: rank %d: GC page %d: %v", tp.rank, pm.id, err))
		}
		tp.stats.GCNoticesPruned += int64(pruned)
	}

	tp.observe(event{kind: evMetaGC, start: start, dur: tp.sp.Now() - start, peer: -1, bytes: int(tp.metaGauge())})
}
