package harness

import (
	"bytes"
	"testing"
)

// TestCrashSweep is the crash-tolerance tentpole's end-to-end gate: a
// rank death on both transports, with every invariant (restart
// bit-correct, abort post-mortem names the blocking entity, determinism)
// checked by CrashSweep itself.
func TestCrashSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := CrashSweep(&buf, DefaultCrashSpec()); err != nil {
		t.Fatalf("crash sweep failed: %v\noutput so far:\n%s", err, buf.String())
	}
	if buf.Len() == 0 {
		t.Error("sweep produced no report")
	}
}

// TestCrashSweepDeterministic: the sweep's own report (times, counters)
// must reproduce exactly under the same spec.
func TestCrashSweepDeterministic(t *testing.T) {
	spec := DefaultCrashSpec()
	var a, b bytes.Buffer
	if err := CrashSweep(&a, spec); err != nil {
		t.Fatal(err)
	}
	if err := CrashSweep(&b, spec); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("crash sweep not deterministic:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}
