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
	churn := func(extra int, evs ...tmk.ChurnEvent) func(*tmk.Config) {
		return func(c *tmk.Config) { c.Membership = tmk.MemberConfig{Extra: extra, Schedule: evs} }
	}
	ev := func(at int, kind string, rank int) tmk.ChurnEvent {
		return tmk.ChurnEvent{AtBarrier: at, Kind: kind, Rank: rank}
	}
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
		{"negative extras", 4, tmk.TransportFastGM, churn(-1), []tmk.ConfigRule{tmk.RuleMemberSize}},
		{"more than 64 ranks", 60, tmk.TransportFastGM, churn(5), []tmk.ConfigRule{tmk.RuleMemberSize}},

		// The schedule, replayed in execution order against the ring.
		{"compute rank leaves twice", 4, tmk.TransportFastGM,
			churn(0, ev(2, "leave", 1), ev(3, "leave", 1)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"legal in list order, not in crossing order", 4, tmk.TransportFastGM,
			churn(1, ev(3, "join", 4), ev(2, "leave", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"rank 0 leaves", 4, tmk.TransportFastGM, churn(0, ev(2, "leave", 0)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"compute rank joins", 4, tmk.TransportFastGM, churn(1, ev(2, "join", 1)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"extra joins twice", 4, tmk.TransportFastGM,
			churn(1, ev(2, "join", 4), ev(3, "join", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"extra crashes before joining", 4, tmk.TransportFastGM,
			churn(1, ev(2, "crash", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"compute rank crashes", 4, tmk.TransportFastGM, churn(1, ev(2, "crash", 1)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"crossing zero", 4, tmk.TransportFastGM, churn(1, ev(0, "join", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"no such rank", 4, tmk.TransportFastGM, churn(1, ev(2, "join", 5)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"unknown kind", 4, tmk.TransportFastGM, churn(1, ev(2, "evict", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},
		{"last joined extra departs under HLRC", 4, tmk.TransportRDMAGM,
			churn(1, ev(2, "join", 4), ev(3, "crash", 4)), []tmk.ConfigRule{tmk.RuleChurnSchedule}},

		{"four rules at once", 0, "bogus",
			func(c *tmk.Config) { c.HomeBased = true; c.BarrierFanout = -1 },
			[]tmk.ConfigRule{tmk.RuleProcs, tmk.RuleTransport, tmk.RuleHomeBased, tmk.RuleRange}},

		// Legal: what arms a feature is its own fields, nothing else.
		{"a victim rank with no trigger is unarmed", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Crash.Rank = 9 }, nil},
		{"legal in crossing order, not in list order", 4, tmk.TransportFastGM,
			churn(1, ev(3, "leave", 4), ev(2, "join", 4)), nil},
		{"the same departure on the homeless protocol", 4, tmk.TransportFastGM,
			churn(1, ev(2, "join", 4), ev(3, "crash", 4)), nil},
		{"restart with membership", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Membership.Extra = 1; c.Crash.Restart = true }, nil},
		{"membership on a lossy fabric: no detector armed", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Membership.Extra = 1; c.Net.Faults.Drop = 0.01 }, nil},
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
// Adding a knob means arguing with this number (DESIGN.md §17).
func TestConfigSurface(t *testing.T) {
	if leaves := harness.ConfigSurface(); len(leaves) != 10 {
		t.Errorf("tmk.Config exposes %d settable feature values, want 10:\n  %s",
			len(leaves), strings.Join(leaves, "\n  "))
	}
}
