package tmk_test

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
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
		{"tmkrun -scenario lockchain -transport bogus", 4, "bogus", nil, []tmk.ConfigRule{tmk.RuleTransport}},
		{"home-based on a two-sided transport", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.HomeBased = true }, []tmk.ConfigRule{tmk.RuleHomeBased}},
		{"no such async scheme", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Scheme = 7 }, []tmk.ConfigRule{tmk.RuleRange}},
		{"drop probability above one", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Faults.Drop = 1.5 }, []tmk.ConfigRule{tmk.RuleRange}},
		{"negative corruption probability", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Faults.Corrupt = -0.1 }, []tmk.ConfigRule{tmk.RuleRange}},
		{"delay probability is no number", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Faults.DelayProb = math.NaN() }, []tmk.ConfigRule{tmk.RuleRange}},
		{"negative delay spike", 4, tmk.TransportFastGM,
			func(c *tmk.Config) { c.Faults.DelayProb = 0.5; c.Faults.DelayMax = -sim.Millisecond },
			[]tmk.ConfigRule{tmk.RuleRange}},

		{"four rules at once", 0, "bogus",
			func(c *tmk.Config) { c.HomeBased = true; c.Scheme = 7 },
			[]tmk.ConfigRule{tmk.RuleProcs, tmk.RuleTransport, tmk.RuleHomeBased, tmk.RuleRange}},
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
		} else if want := "tmk: invalid config: " + ce.Error(); !strings.HasPrefix(verdict.Error(), want) {
			t.Errorf("%s: verdict %q does not lead with its first violation %q", row.name, verdict.Error(), ce.Error())
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

// TestConfigSurface pins how many values a caller can set on a Config
// (harness.ConfigSurface): every settable leaf, and the feature values among
// them — every leaf under Config's feature fields. Adding a setting means
// arguing with these numbers (DESIGN.md §16).
func TestConfigSurface(t *testing.T) {
	features, all := harness.ConfigSurface()
	if len(features) != 8 {
		t.Errorf("tmk.Config exposes %d settable feature values, want 8:\n  %s",
			len(features), strings.Join(features, "\n  "))
	}
	if len(all) != 14 {
		t.Errorf("tmk.Config has %d settable leaves, want 14:\n  %s",
			len(all), strings.Join(all, "\n  "))
	}
}
