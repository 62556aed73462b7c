package tmk

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/statsutil"
)

// The host-side consistency costs on the testbed CPUs (700 MHz Pentium
// III): the testbed's calibrated constants.
const (
	MemcpyBandwidth   = 600e6                // page/twin copies, diff apply, bytes/s
	DiffScanBandwidth = 800e6                // twin-vs-page word compare scan, bytes/s
	FaultOverhead     = 10 * sim.Microsecond // mprotect + SIGSEGV dispatch equivalent
	HandlerOverhead   = 500 * sim.Nanosecond // per-request protocol CPU in handlers
)

// Stats counts one process's DSM activity.
type Stats struct {
	LockAcquiresLocal  int64
	LockAcquiresRemote int64
	LockReleases       int64
	Barriers           int64
	ReadFaults         int64
	Prefetched         int64 // pages a read fault's readahead validated past its span (not read faults)
	WriteFaults        int64
	PageFetches        int64 // full copies fetched: only a home-based read fault's Get of the home's page
	ZeroFills          int64 // homeless cold pages a read fault or its readahead took without a copy: zeros plus the noticed diffs
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

	MetaBytesPeak int64 // per-rank metadata gauge high-water (DESIGN.md §4.3; summed across ranks by Add)

	LockWait    sim.Time
	BarrierWait sim.Time
	FaultTime   sim.Time
}

// Add accumulates other into s (every field, by reflection — a newly
// added counter cannot be forgotten).
func (s *Stats) Add(other *Stats) { statsutil.AddInto(s, other) }

func (s *Stats) String() string {
	return fmt.Sprintf("locks=%d/%d barriers=%d faults=%d/%d prefetched=%d fetches=%d zero-fills=%d diffs=%d/%d",
		s.LockAcquiresLocal, s.LockAcquiresRemote, s.Barriers,
		s.ReadFaults, s.WriteFaults, s.Prefetched, s.PageFetches, s.ZeroFills, s.DiffsCreated, s.DiffsApplied)
}
