package substrate_test

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/statsutil"
	"repro/internal/substrate"
	"repro/internal/substrate/fastgm"
	"repro/internal/substrate/rdmagm"
	"repro/internal/substrate/udpgm"
)

// Every substrate must satisfy the Transport contract — and rdmagm the
// one-sided extension; a signature drift in any implementation breaks
// this compilation, not a distant DSM test.
var (
	_ substrate.Transport = (*fastgm.Transport)(nil)
	_ substrate.Transport = (*udpgm.Transport)(nil)
	_ substrate.Transport = (*rdmagm.Transport)(nil)
	_ substrate.OneSided  = (*rdmagm.Transport)(nil)
)

// TestStatsAddSumsEveryField fails when a newly added Stats field does
// not participate in accumulation: every field is set to a distinct
// value, and after two Adds each must hold exactly twice it. Because Add
// is reflection-based, a non-summable field panics here rather than
// being dropped silently.
func TestStatsAddSumsEveryField(t *testing.T) {
	var dst, src substrate.Stats
	statsutil.FillDistinct(&src)
	dst.Add(&src)
	dst.Add(&src)
	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		got := d.Field(i).Int()
		if want := int64(2 * (i + 1)); got != want {
			t.Errorf("field %s: got %d, want %d (not summed?)",
				d.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsStringMentionsCoreCounters guards the harness's one-line
// summary format against accidental field renames.
func TestStatsStringMentionsCoreCounters(t *testing.T) {
	s := substrate.Stats{RequestsSent: 3, Retransmits: 2}
	str := s.String()
	if str == "" {
		t.Fatal("empty Stats string")
	}
	// A send-buffer stall is reported with its cost, and only when there
	// was one: a run without stalls (every udpgm run) prints as before.
	s.SendBufStalls, s.SendBufWait = 7, 3*sim.Millisecond
	if got, want := s.String(), str+" sendbuf=7/3.000ms"; got != want {
		t.Errorf("Stats string with stalls = %q, want %q", got, want)
	}
}
