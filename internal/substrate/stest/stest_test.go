package stest_test

import (
	"testing"

	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/stest"
	"repro/internal/substrate/udpgm"
)

// TestConformanceAllSubstrates drives the complete Transport contract
// table-driven across every substrate in the repository. The per-package
// suites (fastgm, udpgm, rdmagm) exercise their own configuration
// variants; this table is the single place that proves the three
// families answer the same contract side by side — adding a fourth
// substrate means adding one row.
func TestConformanceAllSubstrates(t *testing.T) {
	builders := []struct {
		name  string
		build stest.Builder
	}{
		{"udpgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewUDPConfig(n, seed, substrate.Policy{}, udpgm.DefaultConfig())
		}},
		{"fastgm", func(n int, seed int64) *stest.Cluster {
			return stest.NewFast(n, seed, substrate.Policy{}, fastgm.DefaultConfig())
		}},
		{"rdmagm", func(n int, seed int64) *stest.Cluster {
			return stest.NewRDMA(n, seed, substrate.Policy{}, fastgm.DefaultConfig())
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) { stest.RunConformance(t, b.build) })
	}
}
