package tmk

import (
	"fmt"
	"sort"
	"strings"
)

// ConfigRule names one constraint on a Config (DESIGN.md §17 is the
// table; Validate below is the only code that knows it).
type ConfigRule string

// The rules of a legal run.
const (
	RuleProcs          ConfigRule = "procs"           // at least one process
	RuleTransport      ConfigRule = "transport"       // a substrate that exists
	RuleHomeBased      ConfigRule = "home-based"      // HLRC needs one-sided verbs
	RuleRange          ConfigRule = "range"           // BarrierFanout, DiffFetchWidth ≥ 0
	RuleCrashRank      ConfigRule = "crash-rank"      // an armed trigger names a compute rank
	RuleLivenessFaults ConfigRule = "liveness-faults" // the detector presumes a fault-free fabric
	RuleMemberSize     ConfigRule = "member-size"     // 0 ≤ extras, ≤ 64 ranks in all
	RuleChurnSchedule  ConfigRule = "churn-schedule"  // every event executable at its fence
)

// ConfigError is one violated rule.
type ConfigError struct {
	Rule   ConfigRule
	Detail string
}

func (e *ConfigError) Error() string { return e.Detail }

// InvalidConfigError is Validate's verdict: every violated rule at once,
// each reachable through errors.As/Is.
type InvalidConfigError []*ConfigError

func (e InvalidConfigError) Error() string {
	parts := make([]string, len(e))
	for i, ce := range e {
		parts[i] = ce.Detail
	}
	return "tmk: invalid config: " + strings.Join(parts, "; ")
}

// Unwrap exposes the individual violations.
func (e InvalidConfigError) Unwrap() []error {
	errs := make([]error, len(e))
	for i, ce := range e {
		errs[i] = ce
	}
	return errs
}

// Validate decides whether cfg describes a legal run and returns every
// violated rule (an InvalidConfigError) or nil. NewCluster calls it and
// Run reports its verdict before anything is spawned; nothing downstream
// re-checks, so a feature pair that cannot compose is rejected here or it
// runs.
func (cfg *Config) Validate() error {
	var errs InvalidConfigError
	bad := func(rule ConfigRule, format string, args ...any) {
		errs = append(errs, &ConfigError{rule, fmt.Sprintf(format, args...)})
	}
	if cfg.Procs < 1 {
		bad(RuleProcs, "need at least one process, got %d", cfg.Procs)
	}
	switch cfg.Transport {
	case TransportUDPGM, TransportFastGM, TransportRDMAGM:
	default:
		bad(RuleTransport, "unknown transport %q (want udpgm, fastgm or rdmagm)", cfg.Transport)
	}
	if cfg.HomeBased && cfg.Transport != TransportRDMAGM {
		bad(RuleHomeBased, "HomeBased requires the one-sided transport rdmagm, got %q", cfg.Transport)
	}
	if cfg.BarrierFanout < 0 {
		bad(RuleRange, "negative BarrierFanout %d", cfg.BarrierFanout)
	}
	if cfg.DiffFetchWidth < 0 {
		bad(RuleRange, "negative DiffFetchWidth %d", cfg.DiffFetchWidth)
	}
	mc := cfg.Membership
	if cc := cfg.Crash; cc.hasTrigger() && (cc.Rank < 0 || cc.Rank >= cfg.Procs) {
		bad(RuleCrashRank, "crash rank %d is not one of the %d processes", cc.Rank, cfg.Procs)
	}
	if cfg.Net.Faults.Enabled() && cfg.Crash.hasTrigger() {
		// A trigger arms the failure detector. Recovering an injected
		// fault — GM's port disable and resume, udpgm's 20 ms
		// retransmission clock — silences a live peer for longer than the
		// detector's deadline, so it is declared dead; and a second death
		// after the one restart is nobody's to handle.
		bad(RuleLivenessFaults, "the failure detector (a crash trigger arms it) "+
			"presumes a fault-free fabric, but Net.Faults injects faults")
	}
	switch total := cfg.Procs + mc.Extra; {
	case mc.Extra < 0:
		bad(RuleMemberSize, "negative Membership.Extra %d", mc.Extra)
	case mc.on() && total > 64:
		bad(RuleMemberSize, "membership supports at most 64 ranks, got %d", total)
	case mc.on():
		if err := mc.replay(cfg.Procs, cfg.HomeBased); err != nil {
			bad(RuleChurnSchedule, "%v", err)
		}
	}
	if errs == nil {
		return nil
	}
	return errs
}

// replay executes the schedule against the ring bitmap exactly as the
// fences will — by crossing, in list order within one — and returns the
// first event its fence could not execute. The bitmaps are a pure function
// of the schedule, so everything churnJoin/Leave/Crash rely on is decided
// here: who is a standby extra, who is in the ring, who is gone. Rank 0
// never leaves and only extras crash, so it stays the barrier root and a
// live compute ring member always remains to take a departing rank's
// locks; page homes move only onto joined extras, so under HLRC an extra
// may depart only while another one stays in the ring.
func (mc MemberConfig) replay(w int, homeBased bool) error {
	order := append([]ChurnEvent(nil), mc.Schedule...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].AtBarrier < order[j].AtBarrier })
	ring := uint64(1)<<uint(w) - 1 // compute ranks start in the ring, extras outside it
	var gone uint64                // extras that left or died
	for _, ev := range order {
		bit := uint64(1) << uint(ev.Rank)
		extra := ev.Rank >= w && ev.Rank < w+mc.Extra
		fail := func(why string) error {
			return fmt.Errorf("churn event {%s rank %d at barrier %d}: %s", ev.Kind, ev.Rank, ev.AtBarrier, why)
		}
		switch {
		case ev.AtBarrier < 1:
			return fail("AtBarrier must be ≥ 1")
		case ev.Rank < 0 || ev.Rank >= w+mc.Extra:
			return fail("no such rank")
		}
		switch ev.Kind {
		case "join":
			if !extra || ring&bit != 0 || gone&bit != 0 {
				return fail("only a standby extra outside the ring can join")
			}
			ring |= bit
			continue
		case "leave":
			if ev.Rank == 0 {
				return fail("rank 0 cannot leave (it is the collective allocator)")
			}
			if ring&bit == 0 {
				return fail("not a ring member at that fence")
			}
		case "crash":
			if !extra || ring&bit == 0 {
				return fail("only a joined standby extra crashes under membership")
			}
		default:
			return fail("unknown kind (want join, leave or crash)")
		}
		ring &^= bit
		if extra {
			gone |= bit
			if homeBased && ring>>uint(w) == 0 {
				return fail("no joined extra left in the ring to take its page homes")
			}
		}
	}
	return nil
}
