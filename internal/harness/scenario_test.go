package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// TestScenariosTraceDeterministically runs every scenario on all three
// substrates at the default size. Two runs must print byte-identical
// protocol traces, and a third with the entity profiler and the causal
// collector attached must print the same trace and end at the same virtual
// time: the other views only observe.
func TestScenariosTraceDeterministically(t *testing.T) {
	for _, name := range ScenarioNames {
		for _, kind := range AllTransports {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				run := func(observe bool) (string, *tmk.Result) {
					var text bytes.Buffer
					tr := trace.New(0)
					tr.Subscribe(tmk.TextTrace(&text))
					var causal *trace.Causal
					if observe {
						causal = trace.NewCausal()
						tr.Subscribe(causal.Observe)
						tr.Subscribe(prof.New().Observe)
					}
					res, err := RunScenario(name, ScenarioNodes, kind, func(cfg *tmk.Config) {
						cfg.Trace = tr
					})
					if err != nil {
						t.Fatal(err)
					}
					if observe && causal.Len() == 0 {
						t.Fatal("causal collector recorded no edge")
					}
					return text.String(), res
				}
				first, res := run(false)
				if lines := strings.Count(first, "\n"); lines < 20 {
					t.Fatalf("%d trace lines; a scenario prints dozens", lines)
				}
				if again, _ := run(false); again != first {
					t.Fatalf("two runs print different traces:\n%s", firstDiff(first, again))
				}
				observed, ores := run(true)
				if observed != first {
					t.Fatalf("profiler and causal collector change the trace:\n%s", firstDiff(first, observed))
				}
				if ores.ExecTime != res.ExecTime {
					t.Fatalf("exec time %v with profiler and causal collector, %v without", ores.ExecTime, res.ExecTime)
				}
			})
		}
	}
}

// firstDiff names the first line at which two traces part.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return "one trace is a prefix of the other"
}
