package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition output: families
// sorted by name, series sorted by label key, HELP/TYPE headers,
// histogram bucket/sum/count suffixes and label escaping. Scrapers and
// the /metrics golden test depend on this shape.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gmine_events_total", "Total events.")
	c.Add(3)
	g := r.Gauge("gmine_depth", "Current depth.")
	g.Dec()
	g.Dec()
	v := r.CounterVec("gmine_http_requests_total", "HTTP requests.", "method", "code")
	v.With("GET", "200").Add(7)
	v.With("POST", "500").Inc()
	h := r.Histogram("gmine_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("gmine_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.Collect("gmine_pool_resident", "Resident pages.", TypeGauge, []string{"session"},
		func(emit func(v float64, labelVals ...string)) {
			emit(9, "b")
			emit(4, `a"quote`)
		})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gmine_depth Current depth.
# TYPE gmine_depth gauge
gmine_depth -2
# HELP gmine_events_total Total events.
# TYPE gmine_events_total counter
gmine_events_total 3
# HELP gmine_http_requests_total HTTP requests.
# TYPE gmine_http_requests_total counter
gmine_http_requests_total{method="GET",code="200"} 7
gmine_http_requests_total{method="POST",code="500"} 1
# HELP gmine_latency_seconds Latency.
# TYPE gmine_latency_seconds histogram
gmine_latency_seconds_bucket{le="0.1"} 1
gmine_latency_seconds_bucket{le="1"} 2
gmine_latency_seconds_bucket{le="+Inf"} 3
gmine_latency_seconds_sum 5.55
gmine_latency_seconds_count 3
# HELP gmine_pool_resident Resident pages.
# TYPE gmine_pool_resident gauge
gmine_pool_resident{session="a\"quote"} 4
gmine_pool_resident{session="b"} 9
# HELP gmine_uptime_seconds Uptime.
# TYPE gmine_uptime_seconds gauge
gmine_uptime_seconds 12.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramBuckets checks le-boundary semantics: a value equal to a
// bound lands in that bound's bucket.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, math.Inf(1)})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	if got := h.counts[0].Load(); got != 2 { // <= 1: 0.5, 1
		t.Errorf("bucket le=1 = %d, want 2", got)
	}
	if got := h.counts[1].Load(); got != 2 { // (1,2]: 1.5, 2
		t.Errorf("bucket le=2 = %d, want 2", got)
	}
	if got := h.counts[2].Load(); got != 1 { // +Inf: 3
		t.Errorf("bucket +Inf = %d, want 1", got)
	}
	if h.Count() != 5 || h.Sum() != 8 {
		t.Errorf("count/sum = %d/%g, want 5/8", h.Count(), h.Sum())
	}
}

// TestVecSeriesIdentity: With returns the same instrument for the same
// label values, a distinct one otherwise, and panics on arity mismatch.
func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "x", "a")
	if v.With("1") != v.With("1") {
		t.Error("same labels returned distinct counters")
	}
	if v.With("1") == v.With("2") {
		t.Error("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	v.With("1", "2")
}

// TestReregisterShapeMismatchPanics: same name, different type is a
// programming error.
func TestReregisterShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "dup")
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	r.Gauge("dup", "dup")
}

// TestRegistryConcurrentScrape hammers one registry from many writer
// goroutines — new series, counter increments, histogram observations —
// while scraping concurrently, the -race half of the "hammer the registry
// from concurrent queries while scraping" satellite. The HTTP-level
// counterpart lives in internal/server.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hammer_total", "hammer", "worker", "kind")
	h := r.HistogramVec("hammer_seconds", "hammer", []float64{0.001, 0.1, 1}, "worker")
	g := r.Gauge("hammer_inflight", "hammer")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				v.With(name, "query").Inc()
				h.With(name).Observe(float64(i) / iters)
				g.Inc()
				g.Dec()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)

	var total uint64
	for w := 0; w < workers; w++ {
		total += v.With(string(rune('a'+w)), "query").Value()
	}
	if total != workers*iters {
		t.Errorf("lost increments: got %d, want %d", total, workers*iters)
	}
}
