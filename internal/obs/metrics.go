// In-memory metrics: named counters, gauges, histograms, and label tallies,
// with a text exposition (WriteText) and an expvar-style JSON exposition
// (Registry implements expvar.Var via String). Everything is safe for
// concurrent use and every method is nil-receiver safe, so instrumented
// code reads the same whether or not a registry is attached.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"replayopt/internal/stats"
)

// Registry holds a scope's metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tallies  map[string]*Tally
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		tallies:  map[string]*Tally{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Tally returns the named tally, creating it on first use.
func (r *Registry) Tally(name string) *Tally {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tallies[name]
	if !ok {
		t = &Tally{max: 64}
		r.tallies[name] = t
	}
	return t
}

// Counter is a monotonically growing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level; it also tracks the high-water mark, which
// is what a worker-occupancy gauge is read for after the fact.
type Gauge struct {
	mu     sync.Mutex
	v, max int64
}

// Add moves the gauge by delta (negative to release).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	if g.v > g.max {
		g.max = g.v
	}
	g.mu.Unlock()
}

// Set forces the gauge to v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max reads the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Histogram records float64 observations and answers quantile queries. It
// keeps every observation — pipeline cardinalities (replays, evaluations)
// are thousands, not billions — which makes quantiles exact.
type Histogram struct {
	mu  sync.Mutex
	vs  []float64
	sum float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.vs = append(h.vs, v)
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vs)
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vs) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vs))
}

// Quantile reports the exact q-quantile (0 <= q <= 1) by the nearest-rank
// rule of stats.NearestRank; 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return stats.NearestRank(h.vs, q)
}

// Tally is a counter keyed by a string label (outcome classes, discard
// causes). Distinct labels are capped; overflow lands on "(other)" so a
// high-cardinality error string cannot balloon memory.
type Tally struct {
	mu  sync.Mutex
	m   map[string]int64
	max int
}

// TallyOverflow is the label absorbing increments past the distinct cap.
const TallyOverflow = "(other)"

// Inc adds one to label's count.
func (t *Tally) Inc(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = map[string]int64{}
	}
	if _, ok := t.m[label]; !ok && len(t.m) >= t.max {
		label = TallyOverflow
	}
	t.m[label]++
	t.mu.Unlock()
}

// Get reads one label's count.
func (t *Tally) Get(label string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[label]
}

// Counts returns a copy of the label map.
func (t *Tally) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

// Snapshot flattens every metric to name -> value. Histograms contribute
// .count/.sum/.p50/.p99, gauges .now/.max, tallies one entry per label.
// The expansion is what per-figure delta reporting subtracts.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := map[string]float64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name+".now"] = float64(g.Value())
		out[name+".max"] = float64(g.Max())
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
		out[name+".p50"] = h.Quantile(0.50)
		out[name+".p99"] = h.Quantile(0.99)
	}
	for name, t := range r.tallies {
		for label, n := range t.Counts() {
			out[name+"."+label] = float64(n)
		}
	}
	return out
}

// WriteText renders the registry as a sorted, aligned text page (the
// -metrics exposition).
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	type row struct{ kind, name, val string }
	var rows []row
	for name, c := range r.counters {
		rows = append(rows, row{"counter", name, fmt.Sprintf("%d", c.Value())})
	}
	for name, g := range r.gauges {
		rows = append(rows, row{"gauge", name,
			fmt.Sprintf("now=%d max=%d", g.Value(), g.Max())})
	}
	for name, h := range r.hists {
		rows = append(rows, row{"histogram", name,
			fmt.Sprintf("count=%d sum=%.3f mean=%.3f p50=%.3f p90=%.3f p99=%.3f",
				h.Count(), h.Sum(), h.Mean(),
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))})
	}
	for name, t := range r.tallies {
		counts := t.Counts()
		labels := make([]string, 0, len(counts))
		for l := range counts {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = fmt.Sprintf("%s=%d", l, counts[l])
		}
		rows = append(rows, row{"tally", name, strings.Join(parts, " ")})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, rw := range rows {
		fmt.Fprintf(w, "%-9s %-32s %s\n", rw.kind, rw.name, rw.val)
	}
}

// String renders the registry as one JSON object (expvar.Var-compatible
// exposition: publish the registry and every metric appears under its name).
func (r *Registry) String() string {
	if r == nil {
		return "{}"
	}
	snap := r.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		return "{}"
	}
	return string(b)
}
