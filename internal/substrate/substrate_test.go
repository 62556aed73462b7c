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

// TestStatsStringPrintsWhatRanOnly: the summary line shows what only some
// runs do — continued replies, send-buffer stalls, peers declared dead,
// sends abandoned — each only when it happened, after the fixed counters, so a
// run with none of them prints exactly as before.
func TestStatsStringPrintsWhatRanOnly(t *testing.T) {
	const base = "req=3 rep=0 fwd=0 retx=0 dup=0 async=0 bytes=0/0"
	for _, row := range []struct {
		s    substrate.Stats
		tail string
	}{
		{substrate.Stats{RequestsSent: 3}, ""},
		{substrate.Stats{RequestsSent: 3, ContinuedFrames: 2}, " continued=2"},
		{substrate.Stats{RequestsSent: 3, PeersDeclaredDead: 1}, " dead=1"},
		{substrate.Stats{RequestsSent: 3, SendsAbandoned: 4}, " abandoned=4"},
		{substrate.Stats{RequestsSent: 3, ContinuedFrames: 2, SendBufStalls: 1, SendBufWait: sim.Millisecond,
			PeersDeclaredDead: 1, SendsAbandoned: 4},
			" continued=2 sendbuf=1/1.000ms dead=1 abandoned=4"},
	} {
		if got, want := row.s.String(), base+row.tail; got != want {
			t.Errorf("Stats string = %q, want %q", got, want)
		}
	}
}
