package tmk

import (
	"fmt"
	"strings"

	"repro/internal/substrate/fastgm"
)

// ConfigRule names one constraint on a Config (DESIGN.md §16 is the
// table; Validate below is the only code that knows it).
type ConfigRule string

// The rules of a legal run.
const (
	RuleProcs     ConfigRule = "procs"      // at least one process
	RuleTransport ConfigRule = "transport"  // a substrate that exists
	RuleHomeBased ConfigRule = "home-based" // HLRC needs one-sided verbs
	RuleRange     ConfigRule = "range"      // a value its field can hold: Scheme, Faults
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
	switch cfg.Scheme {
	case fastgm.AsyncInterrupt, fastgm.AsyncPollingThread, fastgm.AsyncTimer:
	default:
		bad(RuleRange, "unknown Scheme %d (want interrupt, polling-thread or timer)", cfg.Scheme)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", cfg.Faults.Drop}, {"Corrupt", cfg.Faults.Corrupt}, {"DelayProb", cfg.Faults.DelayProb}} {
		if !(p.v >= 0 && p.v <= 1) {
			bad(RuleRange, "Faults.%s %v is not a probability", p.name, p.v)
		}
	}
	if cfg.Faults.DelayMax < 0 {
		bad(RuleRange, "negative Faults.DelayMax %v", cfg.Faults.DelayMax)
	}
	if errs == nil {
		return nil
	}
	return errs
}
