// Package obs is GMine's observability substrate: a dependency-free
// metrics registry rendered in Prometheus text exposition format, a
// per-query stage trace, and request-ID plumbing that lets a 500 in a
// server log correlate with the response a client actually saw.
//
// The registry deliberately implements the small subset of the Prometheus
// data model the engine needs — counters, gauges, fixed-bucket histograms,
// label vectors and scrape-time collectors — instead of importing a client
// library the container does not ship. Exposition output is deterministic
// (families and series sorted), so tests can assert it verbatim.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as emitted on the # TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing value (atomic, safe for
// concurrent use from query hot paths).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets (Prometheus
// histogram semantics: _bucket{le=...}, _sum, _count). Observe is
// lock-free: per-bucket atomic counters plus a CAS loop for the float sum.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are the default latency buckets (seconds), spanning sub-ms
// cache hits to multi-second cold whole-graph sweeps.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// PinBuckets are the default buckets for per-query page-pin counts: one
// leaf touch up to a full cold sweep of a large file.
var PinBuckets = []float64{1, 10, 100, 1000, 10000, 100000, 1e6}

// newHistogram copies and sorts bounds, dropping a trailing +Inf (it is
// implicit).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for len(bs) > 0 && math.IsInf(bs[len(bs)-1], 1) {
		bs = bs[:len(bs)-1]
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// family is one named metric with a fixed label schema: either a vector
// of instrument series keyed by rendered label values, or a scrape-time
// collector emitting samples on demand.
type family struct {
	name   string
	help   string
	typ    string
	labels []string  // label names for vector families
	bounds []float64 // histogram families

	mu     sync.RWMutex
	series map[string]any // label key -> *Counter | *Gauge | *Histogram

	gaugeFn func() float64                                  // GaugeFunc families
	collect func(emit func(v float64, labelVals ...string)) // Collect families
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use; registration methods
// panic on a name registered twice with a different shape (a programming
// error, like prometheus.MustRegister).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds,
		series: make(map[string]any)}
	r.families[name] = f
	return f
}

// labelKey renders label values into the exposition series suffix
// (`{a="x",b="y"}`), which doubles as the series map key. Values are
// escaped per the text format: backslash, double quote and newline.
func labelKey(names, values []string) string {
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

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// lookup returns the series instrument for values, creating it with mk on
// first use.
func (f *family) lookup(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(f.labels, values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = mk()
	f.series[key] = s
	return s
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.lookup(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return f.lookup(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeGauge, nil, nil)
	f.gaugeFn = fn
}

// Histogram registers (or returns) an unlabeled histogram with the given
// upper bounds (+Inf implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, buckets)
	return f.lookup(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with a fixed label schema.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labelNames, nil)}
}

// With returns the counter for the given label values (created on first
// use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.lookup(labelValues, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family with a fixed label schema.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.lookup(labelValues, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// Collect registers a family whose samples are produced at scrape time by
// fn — the hook for metrics that mirror state owned elsewhere (result
// cache counters, per-session buffer pools) without double bookkeeping on
// hot paths. typ is TypeCounter or TypeGauge; labelNames fixes the label
// schema of the emitted samples.
func (r *Registry) Collect(name, help, typ string, labelNames []string, fn func(emit func(v float64, labelVals ...string))) {
	f := r.register(name, help, typ, labelNames, nil)
	f.collect = fn
}

// formatValue renders a sample value: integers without exponent, floats in
// shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name and series sorted by
// label key, so output is deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family, header lines included.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.collect != nil {
		type sample struct {
			key string
			v   float64
		}
		var samples []sample
		f.collect(func(v float64, labelVals ...string) {
			samples = append(samples, sample{labelKey(f.labels, labelVals), v})
		})
		sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
		for _, s := range samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.key, formatValue(s.v))
		}
		return
	}
	if f.gaugeFn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return
	}
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.RUnlock()
	for i, k := range keys {
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, k, m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, k, m.Value())
		case *Histogram:
			writeHistogram(b, f.name, k, m)
		}
	}
}

// writeHistogram renders the cumulative bucket series plus _sum and
// _count. key is the rendered base label set ("" or "{...}").
func writeHistogram(b *strings.Builder, name, key string, h *Histogram) {
	// Re-open the label braces to append le="...".
	open := func(le string) string {
		if key == "" {
			return `{le="` + le + `"}`
		}
		return key[:len(key)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, open(formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, open("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, h.Count())
}
