package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a small metrics registry — counters, gauges, and histogram
// families with labels — with deterministic Prometheus text exposition
// (v0.0.4). It replaces ad-hoc atomic counters: instrumented code holds the
// typed handles (Counter, Gauge, ...) returned at registration, and an HTTP
// handler calls WritePrometheus per scrape. Families render sorted by name,
// and samples within a family sorted by label values, so output is stable
// across scrapes and suitable for golden tests.
//
// Naming follows the Prometheus conventions used throughout datamimed:
// a `datamimed_` (or tool-appropriate) prefix, `_total` suffix on counters,
// base units in the name (`_seconds`, `_bytes`, `_cycles`).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Sample is one metric sample produced by a collector callback. Labels are
// values positionally matching the family's registered label names.
type Sample struct {
	Labels []string
	Value  float64
}

type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	// Exactly one of the following backs the family.
	scalar  *Float64        // Counter / Gauge
	vec     *labeledVec     // CounterVec / GaugeVec
	collect func() []Sample // *Func and Collector families
	hist    *HistogramVec   // histogram family (single label)
	histLbl string          // that label's name
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("telemetry: duplicate metric registration: " + f.name)
	}
	r.families[f.name] = f
}

// Families returns the type ("counter", "gauge" or "histogram") of every
// registered family by name, including those WritePrometheus leaves out
// because they have no samples yet.
func (r *Registry) Families() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	types := make(map[string]string, len(r.families))
	for name, f := range r.families {
		types[name] = f.typ
	}
	return types
}

// Counter is a monotonically increasing metric.
type Counter struct{ v Float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are dropped (counters are monotonic).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v Float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// NewCounter registers and returns a label-less counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", scalar: &c.v})
	return c
}

// NewGauge registers and returns a label-less gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", scalar: &g.v})
	return g
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time — for totals already tracked elsewhere (e.g. an LRU cache's own
// hit counter).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter",
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge",
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// NewCollector registers a family whose full sample set (dynamic label
// values included) is produced by fn at scrape time — for label sets that
// come and go, like per-job gauges. typ is "counter" or "gauge"; labels are
// the label names each Sample's Labels values bind to, in order.
func (r *Registry) NewCollector(name, help, typ string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: fn})
}

// labeledVec stores one counter per label-value tuple, created lazily.
type labeledVec struct {
	mu   sync.Mutex
	m    map[string]*Counter
	keys map[string][]string
}

func (v *labeledVec) get(values []string) *Counter {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.m[key]
	if c == nil {
		c = &Counter{}
		v.m[key] = c
		v.keys[key] = append([]string(nil), values...)
	}
	return c
}

// CounterVec is a counter family with fixed label names, whose series are
// created lazily per label-value tuple.
type CounterVec struct {
	labels []string
	vec    *labeledVec
}

// With returns the counter for the given label values (positional, matching
// the registered label names).
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels", len(values), len(v.labels)))
	}
	return v.vec.get(values)
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{
		labels: append([]string(nil), labels...),
		vec:    &labeledVec{m: make(map[string]*Counter), keys: make(map[string][]string)},
	}
	r.register(&family{name: name, help: help, typ: "counter", labels: v.labels, vec: v.vec})
	return v
}

// NewHistogramVec registers a latency-histogram family keyed by one label
// (nil bounds select DefaultLatencyBounds) and returns the underlying vec;
// observe with vec.Observe(labelValue, duration). The family renders the
// standard _bucket/_sum/_count series, and renders nothing until first
// observation.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := NewHistogramVec(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", hist: v, histLbl: label})
	return v
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format, families sorted by name and samples by label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	switch {
	case f.hist != nil:
		f.writeHistogram(w)
	default:
		samples := f.snapshot()
		if len(samples) == 0 {
			return
		}
		f.header(w)
		for _, s := range samples {
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.Labels), formatValue(s.Value))
		}
	}
}

func (f *family) header(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
}

// snapshot materializes the family's current samples, sorted by label
// values. Scalar families always yield one sample; collector families yield
// whatever fn returns (possibly none).
func (f *family) snapshot() []Sample {
	var samples []Sample
	switch {
	case f.scalar != nil:
		samples = []Sample{{Value: f.scalar.Load()}}
	case f.vec != nil:
		f.vec.mu.Lock()
		for key, c := range f.vec.m {
			samples = append(samples, Sample{Labels: f.vec.keys[key], Value: c.Value()})
		}
		f.vec.mu.Unlock()
	case f.collect != nil:
		samples = f.collect()
	}
	sort.Slice(samples, func(i, j int) bool {
		return strings.Join(samples[i].Labels, "\x00") < strings.Join(samples[j].Labels, "\x00")
	})
	return samples
}

func (f *family) writeHistogram(w io.Writer) {
	labels := f.hist.Labels()
	if len(labels) == 0 {
		return
	}
	f.header(w)
	for _, lv := range labels {
		h := f.hist.Get(lv)
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		for i, b := range snap.Bounds {
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
				f.name, f.histLbl, lv, formatValue(b), snap.Cumulative[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", f.name, f.histLbl, lv, snap.Count)
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", f.name, f.histLbl, lv, formatValue(snap.Sum))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", f.name, f.histLbl, lv, snap.Count)
	}
}

// labelString renders `{a="x",b="y"}`, or "" for label-less samples.
func labelString(names, values []string) string {
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		name := "label"
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(&b, "%s=%q", name, v)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus clients expect
// (shortest round-trippable decimal).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
