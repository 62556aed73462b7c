// Package treadmarks is the public API of this repository: a faithful
// reproduction, in simulation, of "Implementing TreadMarks over GM on
// Myrinet: Challenges, Design Experience, and Performance Evaluation"
// (Noronha & Panda, IPPS 2003).
//
// The package assembles, on top of a deterministic discrete-event
// simulator, the full system stack the paper uses:
//
//	Myrinet fabric model  →  GM user-level messaging  →  {UDP/GM | FAST/GM}
//	                       →  TreadMarks (lazy release consistency)
//	                       →  applications (SOR, TSP, Jacobi, 3D FFT)
//
// A minimal program:
//
//	cfg := treadmarks.DefaultConfig(4, treadmarks.FastGM)
//	res, err := treadmarks.Run(cfg, func(tp *treadmarks.Proc) {
//	    r := tp.AllocShared(8)
//	    tp.Barrier(1)
//	    tp.LockAcquire(0)
//	    tp.WriteF64(r, 0, tp.ReadF64(r, 0)+1)
//	    tp.LockRelease(0)
//	    tp.Barrier(2)
//	})
//
// All times produced by a run are virtual nanoseconds on the paper's
// testbed model (16 × 700 MHz Pentium III, 2 Gb/s Myrinet, LANai-9);
// identical configurations produce bit-identical results.
package treadmarks

import (
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Core types, re-exported from the implementation.
type (
	// Config assembles a DSM run: process count, transport, protocol,
	// and the features — each on when it is set: Scheme, Rendezvous and
	// Faults. The testbed's cost
	// models (fabric, GM, kernel, CPU) are constants, not settings.
	Config = tmk.Config
	// Cluster is an assembled run on which Run executes an application.
	Cluster = tmk.Cluster
	// Proc is the per-rank handle applications use for shared memory,
	// locks and barriers.
	Proc = tmk.Proc
	// Region is a shared-memory region (Tmk_malloc + Tmk_distribute).
	Region = tmk.Region
	// Result summarizes a completed run (virtual execution time, DSM and
	// transport statistics, pinned-memory high-water mark).
	Result = tmk.Result
	// Stats are the DSM counters.
	Stats = tmk.Stats
	// TransportKind selects the communication substrate.
	TransportKind = tmk.TransportKind
	// Time is a virtual-time instant or duration in nanoseconds.
	Time = sim.Time
	// AbortReport is the post-mortem of a run a transport gave up on: who
	// was declared dead, by whom, and what every survivor was blocked on.
	AbortReport = tmk.AbortReport
	// AbortError is returned by Run when a transport spent its retry
	// budget on a peer and declared it dead; it carries the AbortReport.
	AbortError = tmk.AbortError
	// InvalidConfigError is what Config.Validate — and so Run, before
	// anything is spawned — returns for an illegal configuration: every
	// violated rule at once, each a ConfigError naming its rule.
	InvalidConfigError = tmk.InvalidConfigError
	ConfigError        = tmk.ConfigError
)

// The two substrates the paper evaluates.
const (
	// UDPGM is the baseline: TreadMarks over UDP sockets (Sockets-GM).
	UDPGM = tmk.TransportUDPGM
	// FastGM is the paper's substrate: TreadMarks bound directly to GM.
	FastGM = tmk.TransportFastGM
)

// PageSize is the shared-memory page granularity.
const PageSize = tmk.PageSize

// DefaultConfig returns a calibrated n-process configuration on the
// chosen transport.
func DefaultConfig(n int, kind TransportKind) Config { return tmk.DefaultConfig(n, kind) }

// NewCluster assembles a run from a configuration; an illegal one is
// reported by the cluster's Run, never by a panic.
func NewCluster(cfg Config) *Cluster { return tmk.NewCluster(cfg) }

// Run executes app as an SPMD program: one invocation per process, each
// receiving its rank's Proc. It returns when every process has finished
// (an implicit final barrier synchronizes shutdown).
func Run(cfg Config, app func(tp *Proc)) (*Result, error) { return tmk.Run(cfg, app) }
