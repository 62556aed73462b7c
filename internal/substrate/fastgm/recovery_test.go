package fastgm

import (
	"testing"

	"repro/internal/sim"
)

// TestRetryBackoffSchedule pins the retransmission backoff boundaries:
// doubling from RetryBackoff, saturating at RetryBackoffMax, and staying
// saturated for every later attempt.
func TestRetryBackoffSchedule(t *testing.T) {
	want := []sim.Time{
		1:  5 * sim.Millisecond,
		2:  10 * sim.Millisecond,
		3:  20 * sim.Millisecond,
		4:  40 * sim.Millisecond,
		5:  80 * sim.Millisecond,
		6:  160 * sim.Millisecond,
		7:  200 * sim.Millisecond, // 320 uncapped: first saturated attempt
		8:  200 * sim.Millisecond,
		16: 200 * sim.Millisecond, // MaxSendRetries boundary stays capped
	}
	for attempts, d := range want {
		if d == 0 {
			continue
		}
		if got := retryBackoff.Delay(attempts); got != d {
			t.Errorf("retryBackoff(%d) = %v, want %v", attempts, got, d)
		}
	}
}
