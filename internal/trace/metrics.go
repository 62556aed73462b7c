package trace

import (
	"maps"
	"slices"
)

// Counter is a monotonic event count with an associated magnitude sum
// (bytes, virtual ns, hops — whatever the metric's unit is).
type Counter struct {
	N   int64 // occurrences
	Sum int64 // summed magnitude
}

// Add records n occurrences carrying a total magnitude of sum.
func (c *Counter) Add(n, sum int64) {
	c.N += n
	c.Sum += sum
}

// Inc records one occurrence of magnitude v.
func (c *Counter) Inc(v int64) { c.Add(1, v) }

// Histogram is a count and a sum of observed values.
type Histogram struct {
	N   int64
	Sum int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.N++
	h.Sum += v
}

// Registry holds a simulation's counters and histograms, keyed by
// (layer, name). It holds only what the benchmark's per-layer rows read
// (benchmark/run.go, perLayerRows), its one reader: an occurrence nothing
// reads is recorded by its layer's Stats field or trace event alone.
// Lookup creates on first use, so instrumentation sites never need
// registration boilerplate; hot paths should capture the returned pointer
// once instead of re-looking-up per event.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter layer/name.
func (r *Registry) Counter(layer, name string) *Counter {
	k := layer + "/" + name
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Histogram returns (creating if needed) the histogram layer/name.
func (r *Registry) Histogram(layer, name string) *Histogram {
	k := layer + "/" + name
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// CounterNames returns every counter key ("layer/name"), sorted.
func (r *Registry) CounterNames() []string { return slices.Sorted(maps.Keys(r.counters)) }

// Lookup returns the counter for key ("layer/name") or nil.
func (r *Registry) Lookup(key string) *Counter { return r.counters[key] }

// LookupHistogram returns the histogram for key ("layer/name") or nil.
func (r *Registry) LookupHistogram(key string) *Histogram { return r.hists[key] }
