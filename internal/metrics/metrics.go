// Package metrics is a dependency-free instrumentation layer:
// lock-free counters, gauges and fixed-bucket histograms collected in
// a Registry and exposed in the Prometheus text format (# HELP/# TYPE
// comments, label support, cumulative histogram buckets).
//
// The package deliberately implements only what the daemon needs — no
// summaries, no exemplars, no push — so the whole stack can be
// instrumented without importing anything outside the standard
// library. All write paths are single atomic operations (a histogram
// observation is two), so instruments can sit on the simulation hot
// path: incrementing a counter never allocates, never locks, and is
// safe from any number of goroutines.
//
// Instruments are created through a Registry and identified by name;
// creating the same name twice returns the existing instrument (a
// type mismatch panics — that is a programming error, not a runtime
// condition). Families with labels are declared as vecs
// (CounterVec/GaugeVec) whose children are addressed by label values.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A kind is the exposition TYPE of a metric family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64 // non-nil for callback-backed counters
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count, consulting the callback for
// callback-backed counters.
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. It stores a float64 so it
// can carry ratios as well as counts.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for callback-backed gauges
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value, consulting the callback for
// callback-backed gauges.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed, pre-declared buckets plus
// an implicit +Inf bucket, tracking the observation sum alongside. An
// observation is a binary search and two atomic adds — no locks, no
// allocation — so histograms can time hot-path work when sampled.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one value: it lands in the first bucket whose upper
// bound is >= v (Prometheus `le` semantics), or +Inf beyond the last.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor: the standard shape for latency
// histograms. start must be positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// child is one labelled instrument of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric with its help text, type, label names and
// children (exactly one, unlabelled, for plain instruments).
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string

	mu       sync.Mutex
	children map[string]*child // keyed by joined label values
	order    []string
}

// Registry holds a set of metric families and renders them as
// Prometheus text. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the family, creating it on first use and panicking on
// a kind or label-arity mismatch with an earlier registration.
func (r *Registry) lookup(name, help string, k kind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, labelNames: labels, children: map[string]*child{}}
		r.families[name] = f
		return f
	}
	if f.kind != k || len(f.labelNames) != len(labels) {
		panic(fmt.Sprintf("metrics: %s re-registered as %s with %d label(s), was %s with %d",
			name, k, len(labels), f.kind, len(f.labelNames)))
	}
	return f
}

// child returns the family's instrument for the given label values,
// creating it on first use.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s needs %d label value(s), got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter returns the registry's counter with this name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil).child(nil).counter
}

// Gauge returns the registry's settable gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil).child(nil).gauge
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time — the natural shape for "current depth/occupancy" readings that
// already live in the instrumented component.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.lookup(name, help, kindGauge, nil).child(nil).gauge.fn = f
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family with this name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).counter
}

// Func registers a callback-backed child counter for the label values:
// f must never decrease. It suits counts the instrumented component
// already keeps.
func (v *CounterVec) Func(f func() uint64, labelValues ...string) {
	v.f.child(labelValues).counter.fn = f
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labelled gauge family with this name.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labelNames)}
}

// Func registers a callback-backed child gauge for the label values.
func (v *GaugeVec) Func(f func() float64, labelValues ...string) {
	v.f.child(labelValues).gauge.fn = f
}

// Histogram returns the registry's histogram with this name, creating
// it with the given bucket upper bounds on first use (later calls
// reuse the existing buckets; bounds must be sorted ascending).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("metrics: %s bucket bounds are not sorted", name))
	}
	f := r.lookup(name, help, kindHistogram, nil)
	c := f.child(nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.hist == nil {
		c.hist = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Uint64, len(buckets)),
		}
	}
	return c.hist
}

// WriteText renders every family in the Prometheus text exposition
// format: families sorted by name, children in creation order, each
// family preceded by its # HELP and # TYPE comments.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		for _, key := range f.order {
			c := f.children[key]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labelNames, c.labelValues), c.counter.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labelNames, c.labelValues), formatFloat(c.gauge.Value()))
			case kindHistogram:
				h := c.hist
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatFloat(bound), cum)
				}
				cum += h.inf.Load()
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
				fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(h.Sum()))
				fmt.Fprintf(w, "%s_count %d\n", f.name, h.Count())
			}
		}
		f.mu.Unlock()
	}
}

// Text returns the registry's full exposition document.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// Handler returns an http.Handler serving the exposition document —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Text()))
	})
}

// renderLabels renders {k="v",...}, or nothing for unlabelled
// instruments.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a float the way Prometheus does: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
