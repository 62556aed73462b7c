package tmk_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/tmk"
)

// rulesOf returns the rules err reports violated, in Validate's order.
func rulesOf(t *testing.T, err error) []tmk.ConfigRule {
	t.Helper()
	if err == nil {
		return nil
	}
	var ice tmk.InvalidConfigError
	if !errors.As(err, &ice) {
		t.Fatalf("error %v (%T) is not an InvalidConfigError", err, err)
	}
	var rules []tmk.ConfigRule
	for _, ce := range ice {
		rules = append(rules, ce.Rule)
	}
	return rules
}

// TestValidateRules is the legality contract, once: one row per rule with
// a configuration violating only it, a row violating four at once, and the
// inputs that used to die in a goroutine dump. Every rejected row must
// come back from Run as the same typed verdict — never a panic.
func TestValidateRules(t *testing.T) {
	rows := []struct {
		name string
		n    int
		kind tmk.TransportKind
		set  func(*tmk.Config)
		want []tmk.ConfigRule
	}{
		{"tmkrun -nodes 0", 0, tmk.TransportFastGM, nil, []tmk.ConfigRule{tmk.RuleProcs}},
		{"tmktrace -transport bogus", 4, "bogus", nil, []tmk.ConfigRule{tmk.RuleTransport}},
		{"home-based on a two-sided transport", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.HomeBased = true }, []tmk.ConfigRule{tmk.RuleHomeBased}},
		{"negative fan-out", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.BarrierFanout = -1 }, []tmk.ConfigRule{tmk.RuleRange}},
		{"negative diff-fetch width", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.DiffFetchWidth = -1 }, []tmk.ConfigRule{tmk.RuleRange}},
		{"armed trigger names no process", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Crash = tmk.CrashConfig{Rank: 4, AtBarrier: 3} },
			[]tmk.ConfigRule{tmk.RuleCrashRank}},
		{"failure detector on a lossy fabric", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Crash = tmk.CrashConfig{Rank: 1, AtLock: 1}; c.Net.Faults.Drop = 0.01 },
			[]tmk.ConfigRule{tmk.RuleLivenessFaults}},

		{"four rules at once", 0, "bogus",
			func(c *tmk.Config) { c.HomeBased = true; c.BarrierFanout = -1 },
			[]tmk.ConfigRule{tmk.RuleProcs, tmk.RuleTransport, tmk.RuleHomeBased, tmk.RuleRange}},

		// Legal: what arms a feature is its own fields, nothing else.
		{"a victim rank with no trigger is unarmed", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Crash.Rank = 9 }, nil},
	}
	for _, row := range rows {
		cfg := tmk.DefaultConfig(row.n, row.kind)
		if row.set != nil {
			row.set(&cfg)
		}
		verdict := cfg.Validate()
		if got := rulesOf(t, verdict); !slices.Equal(got, row.want) {
			t.Errorf("%s: Validate reports %v (%v), want %v", row.name, got, verdict, row.want)
		}
		if verdict == nil {
			continue
		}
		var ce *tmk.ConfigError
		if !errors.As(verdict, &ce) || ce.Rule != row.want[0] {
			t.Errorf("%s: errors.As reaches %v, want the first violation (%s)", row.name, ce, row.want[0])
		}
		if strings.Contains(verdict.Error(), "\n") {
			t.Errorf("%s: verdict is not one line: %q", row.name, verdict.Error())
		}
		if res, err := tmk.Run(cfg, func(*tmk.Proc) { t.Errorf("%s: app ran", row.name) }); res != nil || !reflect.DeepEqual(err, verdict) {
			t.Errorf("%s: Run returned (%v, %v), want the verdict %v", row.name, res, err, verdict)
		}
	}
	for _, kind := range allTransports {
		for _, n := range []int{1, 2, 16} {
			cfg := tmk.DefaultConfig(n, kind)
			if err := cfg.Validate(); err != nil {
				t.Errorf("DefaultConfig(%d, %s): %v", n, kind, err)
			}
		}
	}
}

// TestConfigSurface pins how many feature values a caller can set
// (harness.ConfigSurface: every leaf under Config's feature fields, plus any
// copy of the cluster-uniform policy hiding in a per-substrate config).
// Adding a knob means arguing with this number (DESIGN.md §16).
func TestConfigSurface(t *testing.T) {
	if leaves := harness.ConfigSurface(); len(leaves) != 8 {
		t.Errorf("tmk.Config exposes %d settable feature values, want 8:\n  %s",
			len(leaves), strings.Join(leaves, "\n  "))
	}
}
