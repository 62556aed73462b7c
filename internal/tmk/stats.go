package tmk

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/statsutil"
)

// CPUParams model the host-side consistency costs on the testbed CPUs
// (700 MHz Pentium III).
type CPUParams struct {
	MemcpyBandwidth   float64  // page/twin copies, diff apply, bytes/s
	DiffScanBandwidth float64  // twin-vs-page word compare scan, bytes/s
	FaultOverhead     sim.Time // mprotect + SIGSEGV dispatch equivalent
	HandlerOverhead   sim.Time // per-request protocol CPU in handlers
}

// DefaultCPUParams returns calibrated testbed constants.
func DefaultCPUParams() CPUParams {
	return CPUParams{
		MemcpyBandwidth:   600e6,
		DiffScanBandwidth: 800e6,
		FaultOverhead:     sim.Micro(10),
		HandlerOverhead:   sim.Micro(0.5),
	}
}

// Stats counts one process's DSM activity.
type Stats struct {
	LockAcquiresLocal  int64
	LockAcquiresRemote int64
	LockReleases       int64
	Barriers           int64
	ReadFaults         int64
	WriteFaults        int64
	PageFetches        int64 // full copies fetched: only a home-based read fault's Get of the home's page
	ZeroFills          int64 // homeless cold read faults that took no copy: zeros plus the noticed diffs
	DiffRequestsSent   int64
	DiffsCreated       int64
	DiffsApplied       int64
	DiffBytesCreated   int64
	DiffBytesApplied   int64
	TwinsCreated       int64
	IntervalsCreated   int64
	IntervalsLearned   int64
	Invalidations      int64

	// Home-based LRC counters (zero unless Config.HomeBased).
	HomeFlushes    int64 // dirty pages whose diffs were Put to a remote home
	HomeFlushBytes int64 // diff-run payload bytes RDMA-written to homes
	HomeFetches    int64 // read faults served by a one-sided home page read
	HomeFetchBytes int64 // page bytes RDMA-read from homes
	HomeMoves      int64 // pages whose home migrated to their sole writer (counted there)

	// Elastic-membership counters (zero with Config.Membership off;
	// DESIGN.md §14). Handoff counters are charged to the fence leader.
	MemberJoins             int64 // ring admissions executed
	MemberLeaves            int64 // ring departures executed
	MemberCrashes           int64 // scheduled rank deaths executed
	MemberPartialRecoveries int64 // crash recoveries that re-placed only the dead rank's entities
	MemberHandoffLocks      int64 // lock managers shipped to a new owner
	MemberHandoffPages      int64 // page homes shipped or rebuilt at a new owner
	MemberHandoffBytes      int64 // handoff bytes copied (lockHandoffBytes / pageHandoffBytes each)
	MemberDiffsReplayed     int64 // surviving diffs replayed into rebuilt home pages

	MetaBytesPeak int64 // per-rank metadata gauge high-water (DESIGN.md §4.3; summed across ranks by Add)

	LockWait    sim.Time
	BarrierWait sim.Time
	FaultTime   sim.Time
}

// Add accumulates other into s (every field, by reflection — a newly
// added counter cannot be forgotten).
func (s *Stats) Add(other *Stats) { statsutil.AddInto(s, other) }

func (s *Stats) String() string {
	return fmt.Sprintf("locks=%d/%d barriers=%d faults=%d/%d fetches=%d zero-fills=%d diffs=%d/%d",
		s.LockAcquiresLocal, s.LockAcquiresRemote, s.Barriers,
		s.ReadFaults, s.WriteFaults, s.PageFetches, s.ZeroFills, s.DiffsCreated, s.DiffsApplied)
}
