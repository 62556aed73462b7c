package tmk

import (
	"fmt"
	"strings"
)

// ConfigRule names one constraint on a Config (DESIGN.md §16 is the
// table; Validate below is the only code that knows it).
type ConfigRule string

// The rules of a legal run.
const (
	RuleProcs          ConfigRule = "procs"           // at least one process
	RuleTransport      ConfigRule = "transport"       // a substrate that exists
	RuleHomeBased      ConfigRule = "home-based"      // HLRC needs one-sided verbs
	RuleRange          ConfigRule = "range"           // BarrierFanout, DiffFetchWidth ≥ 0
	RuleCrashRank      ConfigRule = "crash-rank"      // an armed trigger names a process
	RuleLivenessFaults ConfigRule = "liveness-faults" // the detector presumes a fault-free fabric
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
	if errs == nil {
		return nil
	}
	return errs
}
