package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one number in the form the caller's contract asks for.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's — or the probe's — numbers in that form.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is one invocation's results: what -out writes and -compare
// reads. Results is keyed by workload name, plus "probe".
type resultSet struct {
	Seed    int64             `json:"seed"`
	Results map[string]result `json:"results"`

	outcomes []outcome // in run order, with the notes the report prints
}

func newResultSet(seed int64) *resultSet {
	return &resultSet{Seed: seed, Results: map[string]result{}}
}

func (s *resultSet) add(o outcome) {
	r := result{Correct: o.Failed == 0 && len(o.Errors) == 0, Attempted: o.Attempted, Failed: o.Failed,
		Errors: o.Errors, Metrics: map[string]metric{}}
	for _, rw := range append(append([]row(nil), o.EndToEnd...), o.PerLayer...) {
		r.Metrics[rw.Name] = metric{Value: rw.Value, Unit: rw.Unit}
	}
	s.Results[o.Name] = r
	s.outcomes = append(s.outcomes, o)
}

// contract merges a workload's result with the probe's (when it ran)
// into the single object a one-workload invocation ends with.
func (s *resultSet) contract(name string) result {
	r := s.Results[name]
	if p, ok := s.Results[probeName]; ok {
		r.Correct = r.Correct && p.Correct
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.Errors = append(append([]string(nil), r.Errors...), p.Errors...)
		for k, v := range p.Metrics {
			r.Metrics[k] = v
		}
	}
	return r
}

func failShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// print writes every metric by name, with its unit, one per line.
func (s *resultSet) print(w io.Writer) {
	line := func(r row) {
		fmt.Fprintf(w, "    %-36s %14.6g  %-8s %s\n", r.Name, r.Value, r.Unit, r.Note)
	}
	for _, o := range s.outcomes {
		head := "layer probe — workload-independent, stacks built only up to each layer"
		if wl, ok := workloadByName(o.Name); ok {
			head = wl.header()
		}
		fmt.Fprintf(w, "== %s (seed %d)\n", head, s.Seed)
		if o.Name != probeName {
			fmt.Fprintf(w, "  end-to-end\n")
			for _, r := range o.EndToEnd {
				line(r)
			}
			line(row{Name: "fail_share", Unit: "ratio", Value: failShare(o.Failed, o.Attempted),
				Note: fmt.Sprintf("%d failed ÷ %d attempted", o.Failed, o.Attempted)})
		}
		if len(o.PerLayer) > 0 {
			fmt.Fprintf(w, "  per-layer\n")
			for _, r := range o.PerLayer {
				line(r)
			}
		}
		for _, e := range o.Errors {
			fmt.Fprintf(w, "  ERROR %s\n", e)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the bounds a comparison is judged by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(b, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// onHostClock reports whether a metric is measured on the host (sampled,
// noisy) rather than computed by the simulation (exact). The metric
// names carry the clock: see README.md.
func onHostClock(name string) bool {
	return name == "setup_s" || strings.Contains(name, "host") || strings.Contains(name, "allocs")
}

// compareSets prints one row per workload × end-to-end metric — both
// values, how much worse b is, and the bound — and returns how many rows
// are beyond their bound. With sameCode, a and b ran the same commit, so
// every number the simulation computes must also be bit-identical.
func compareSets(w io.Writer, a, b *resultSet, spec *benchSpec, sameCode bool) int {
	bad := 0
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %8s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range spec.Workloads {
		ra, rb := a.Results[wl.Name], b.Results[wl.Name]
		for _, m := range spec.EndToEnd {
			va, oka := ra.Metrics[m.Name]
			vb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				bad++
				fmt.Fprintf(w, "%-18s %-24s missing  <-- BEYOND BOUND\n", wl.Name, m.Name)
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				bad++
				mark = "  <-- BEYOND BOUND"
			}
			fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g %+8.2f%% %7.1f%%%s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, mark)
		}
		fa, fb := failShare(ra.Failed, ra.Attempted), failShare(rb.Failed, rb.Attempted)
		mark := ""
		if fb > fa {
			bad++
			mark = "  <-- BEYOND BOUND"
		}
		fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g %9s %8s%s\n", wl.Name, "fail_share", fa, fb, "", "any", mark)
	}
	if !sameCode {
		return bad
	}
	for _, name := range sortedKeys(a.Results) {
		ma, mb := a.Results[name].Metrics, b.Results[name].Metrics
		for _, k := range sortedKeys(ma) {
			if !onHostClock(k) && ma[k] != mb[k] {
				bad++
				fmt.Fprintf(w, "%-18s %-24s %14v %14v  <-- NOT BIT-IDENTICAL\n", name, k, ma[k].Value, mb[k].Value)
			}
		}
	}
	return bad
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if bad := compareSets(w, a, b, spec, false); bad > 0 {
		return fmt.Errorf("%d rows beyond their bound", bad)
	}
	return nil
}

// selfCheck runs the full set twice and compares the two: the
// benchmark's own repeatability criterion. The two runs of a workload are
// back to back, so that a host whose speed drifts over minutes treats
// both sets alike.
func selfCheck(w io.Writer, o options) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, b := newResultSet(o.seed), newResultSet(o.seed)
	for _, name := range children("", o) {
		a.add(runChild(name, o))
		b.add(runChild(name, o))
	}
	b.print(w)
	if bad := compareSets(w, a, b, spec, true); bad > 0 {
		return fmt.Errorf("selfcheck: %d rows differ beyond what two runs of one commit may", bad)
	}
	fmt.Fprintln(w, "selfcheck: two runs of the same code agree within every bound; exact metrics are bit-identical")
	return nil
}
