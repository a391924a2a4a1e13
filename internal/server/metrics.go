package server

import (
	"net/http"
	"time"

	"repro/internal/gtree"
	"repro/internal/obs"
)

// serverMetrics wires the server's observable state into one obs.Registry
// scraped at GET /metrics. Two kinds of series live here:
//
//   - Event metrics the request path writes directly (HTTP status/latency
//     by route, in-flight gauge, panics, per-stage query timings flushed
//     from completed traces). These touch only the middleware, never the
//     solver or pool hot paths.
//   - Scrape-time collectors over counters the engine already keeps
//     (result cache, buffer pools, sessions). Reading them at scrape time
//     keeps the instrumented hot paths at zero extra work — and /healthz
//     reports the same underlying numbers, making it a thin view over the
//     registry rather than a second bookkeeping system.
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // gmine_http_requests_total{route,code}
	latency  *obs.HistogramVec // gmine_http_request_seconds{route}
	inFlight *obs.Gauge        // gmine_http_requests_in_flight
	panics   *obs.Counter      // gmine_http_panics_total
	stage    *obs.HistogramVec // gmine_query_stage_seconds{stage}
	pins     *obs.Histogram    // gmine_query_pool_pins
	faults   *obs.Counter      // gmine_query_pool_faults_total
	batchOK  *obs.Counter      // gmine_batch_items_total{outcome}
	batchErr *obs.Counter
	overload *obs.CounterVec // gmine_http_overload_total{kind}
	cancels  *obs.Counter    // gmine_query_cancelled_total
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("gmine_http_requests_total",
			"HTTP requests served, by matched route and status code.",
			"route", "code"),
		latency: reg.HistogramVec("gmine_http_request_seconds",
			"End-to-end request latency by matched route.",
			obs.DefBuckets, "route"),
		inFlight: reg.Gauge("gmine_http_requests_in_flight",
			"Requests currently being served."),
		panics: reg.Counter("gmine_http_panics_total",
			"Handler panics contained by the middleware (each served a 500)."),
		stage: reg.HistogramVec("gmine_query_stage_seconds",
			"Per-stage query timings (open, labels, solve, rwr, expand, induce, ...).",
			obs.DefBuckets, "stage"),
		pins: reg.Histogram("gmine_query_pool_pins",
			"Buffer-pool page pins per traced query (hits+misses through its counted pool view): "+
				"row cursors and blobs only; whole-graph sweeps read the file without pinning.",
			obs.PinBuckets),
		faults: reg.Counter("gmine_query_pool_faults_total",
			"Paged-read faults latched on traced queries' own views."),
		overload: reg.CounterVec("gmine_http_overload_total",
			"Transient 503 rejections by kind: shed (admission limit), "+
				"timeout (request deadline), breaker_open (session circuit breaker).",
			"kind"),
		cancels: reg.Counter("gmine_query_cancelled_total",
			"Queries and batch items abandoned because the client went away "+
				"(cooperative cancellation unwound the solve)."),
	}
	batch := reg.CounterVec("gmine_batch_items_total",
		"Batch extraction items processed, by outcome.", "outcome")
	m.batchOK, m.batchErr = batch.With("ok"), batch.With("error")

	reg.GaugeFunc("gmine_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("gmine_sessions",
		"Live sessions in the registry.",
		func() float64 { return float64(len(s.reg.names())) })

	// Result cache: the cache keeps its own counters; read them at scrape
	// time instead of double-counting on the request path.
	reg.Collect("gmine_result_cache_ops_total",
		"Result-cache outcomes (hit, miss, coalesced, eviction).",
		"counter", []string{"op"},
		func(emit func(v float64, labelVals ...string)) {
			cs := s.cache.snapshot()
			emit(float64(cs.Hits), "hit")
			emit(float64(cs.Misses), "miss")
			emit(float64(cs.Coalesced), "coalesced")
			emit(float64(cs.Evictions), "eviction")
		})
	reg.Collect("gmine_result_cache_entries",
		"Resident result-cache entries (capacity in gmine_result_cache_capacity).",
		"gauge", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(s.cache.snapshot().Entries))
		})
	reg.Collect("gmine_result_cache_capacity",
		"Result-cache entry capacity.",
		"gauge", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(s.cache.snapshot().Capacity))
		})

	// Buffer pools of disk-backed sessions. eachPool uses the non-blocking
	// snapshot path, so a scrape racing a session build reports the last
	// known values instead of stalling the scrape (same contract as
	// /healthz "stale").
	eachPool := func(emit func(v float64, labelVals ...string), pick func(pi *PoolInfo) float64) {
		for _, name := range s.reg.names() {
			sess, ok := s.reg.get(name)
			if !ok {
				continue
			}
			if pi := sess.poolSnapshot(); pi != nil {
				emit(pick(pi), name)
			}
		}
	}
	poolLabels := []string{"session"}
	reg.Collect("gmine_pool_hits_total", "Buffer-pool page hits by session.",
		"counter", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.Hits) })
		})
	reg.Collect("gmine_pool_misses_total", "Buffer-pool page misses (disk reads) by session.",
		"counter", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.Misses) })
		})
	reg.Collect("gmine_pool_evictions_total", "Buffer-pool evictions by session.",
		"counter", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.Evictions) })
		})
	reg.Collect("gmine_pool_resident_frames", "Resident buffer-pool frames by session.",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.Resident) })
		})
	reg.Collect("gmine_pool_capacity_frames", "Buffer-pool frame capacity by session.",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.Capacity) })
		})
	reg.Collect("gmine_pool_pinned_frames",
		"Resident frames currently pinned by in-flight queries, by session "+
			"(non-zero on an idle session means leaked pins).",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.PinnedFrames) })
		})
	reg.Collect("gmine_pool_read_retries_total",
		"Transient page-read recovery by session: retry (re-read attempts), "+
			"healed (reads recovered by retry), failed (reads that exhausted "+
			"the retry budget and latched a permanent fault).",
		"counter", []string{"session", "op"}, func(emit func(v float64, labelVals ...string)) {
			for _, name := range s.reg.names() {
				sess, ok := s.reg.get(name)
				if !ok {
					continue
				}
				if pi := sess.poolSnapshot(); pi != nil {
					emit(float64(pi.Retry.Retries), name, "retry")
					emit(float64(pi.Retry.Healed), name, "healed")
					emit(float64(pi.Retry.Failed), name, "failed")
				}
			}
		})
	reg.Collect("gmine_pool_load_waits_total",
		"Page requests that waited on another reader's in-flight load of the same page, by session.",
		"counter", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachPool(emit, func(pi *PoolInfo) float64 { return float64(pi.LoadWaits) })
		})

	// Circuit breaker state per session: 0 closed, 1 open, 2 half-open.
	eachBreaker := func(each func(name string, state int, opens uint64)) {
		for _, name := range s.reg.names() {
			if sess, ok := s.reg.get(name); ok && sess.brk != nil {
				st, opens := sess.brk.state()
				each(name, st, opens)
			}
		}
	}
	reg.Collect("gmine_session_breaker_state",
		"Session circuit breaker position: 0 closed, 1 open (rejecting), 2 half-open (probe admitted).",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachBreaker(func(name string, state int, _ uint64) { emit(float64(state), name) })
		})
	reg.Collect("gmine_session_breaker_opens_total",
		"Times each session's circuit breaker opened (including failed half-open probes re-opening it).",
		"counter", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachBreaker(func(name string, _ int, opens uint64) { emit(float64(opens), name) })
		})

	// Hot-tier families only emit rows for sessions with a tier budget
	// set — the Tier pointer is nil while tiering is off, so idle servers
	// scrape no extra series.
	eachTier := func(each func(name string, ti *gtree.TierInfo)) {
		for _, name := range s.reg.names() {
			sess, ok := s.reg.get(name)
			if !ok {
				continue
			}
			if pi := sess.poolSnapshot(); pi != nil && pi.Tier != nil {
				each(name, pi.Tier)
			}
		}
	}
	reg.Collect("gmine_tier_resident_bytes",
		"Bytes of the decoded CSR held in memory by the hot tier, 0 while nothing is promoted, by session (budget in gmine_tier_budget_bytes).",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachTier(func(name string, ti *gtree.TierInfo) { emit(float64(ti.Bytes), name) })
		})
	reg.Collect("gmine_tier_budget_bytes",
		"Configured hot-tier byte budget, by session.",
		"gauge", poolLabels, func(emit func(v float64, labelVals ...string)) {
			eachTier(func(name string, ti *gtree.TierInfo) { emit(float64(ti.Budget), name) })
		})
	reg.Collect("gmine_tier_ops_total",
		"Hot-tier operations by session: whole-graph promotions and demotions, and queries served from memory (hit) vs the paged store (miss).",
		"counter", []string{"session", "op"}, func(emit func(v float64, labelVals ...string)) {
			eachTier(func(name string, ti *gtree.TierInfo) {
				emit(float64(ti.Promotions), name, "promotion")
				emit(float64(ti.Demotions), name, "demotion")
				emit(float64(ti.Hits), name, "hit")
				emit(float64(ti.Misses), name, "miss")
			})
		})
	return m
}

// observeTrace flushes one completed query trace into the registry: stage
// durations into the per-stage histograms, pool pins into the pin
// distribution, view faults into the fault counter. Requests that never
// reached the engine (404s, cache hits) carry no stages and cost nothing.
func (m *serverMetrics) observeTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	for _, st := range tr.Stages() {
		m.stage.With(st.Name).Observe(float64(st.DurMicros) / 1e6)
	}
	if pins := tr.CountValue("pool.pins"); pins > 0 {
		m.pins.Observe(float64(pins))
	}
	if f := tr.CountValue("pool.faults"); f > 0 {
		m.faults.Add(uint64(f))
	}
}

const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.refuse(w, r, nil, 0) {
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	_ = s.metrics.reg.WritePrometheus(w)
}

// MetricsHandler exposes the Prometheus scrape endpoint for mounting on a
// separate listener (the CLI's -debug-addr side server serves it next to
// pprof).
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }
