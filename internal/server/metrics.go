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
		func() float64 { return float64(len(s.reg.list())) })

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

	// Per-session families: buffer pools of disk-backed sessions, circuit
	// breakers of every session, and hot tiers of sessions with a tier
	// budget. Each reads one snapshot per session at scrape time; pool rows
	// come from the non-blocking snapshot path, so a scrape racing a
	// write-locked session leaves its row out instead of stalling.
	for _, f := range sessionFamilies {
		labels := []string{"session"}
		if f.ops != nil {
			labels = append(labels, "op")
		}
		reg.Collect(f.name, f.help, f.kind, labels, func(emit func(v float64, labelVals ...string)) {
			for _, sess := range s.reg.list() {
				for i, v := range f.read(sess) {
					if f.ops == nil {
						emit(v, sess.name)
					} else {
						emit(v, sess.name, f.ops[i])
					}
				}
			}
		})
	}
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

// sessionFamily is a metric family with one row per session: read returns
// the session's values, one per op label value (one value when ops is
// nil), or nil to leave the session out.
type sessionFamily struct {
	name, help, kind string
	ops              []string
	read             func(sess *Session) []float64
}

// floats converts counter and gauge values to samples.
func floats[T ~int | ~int64 | ~uint64](vs ...T) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// fromPool reads a family from the session's pool snapshot (disk-backed
// sessions only); fromTier from its hot-tier state (tier budget set only).
func fromPool(pick func(pi *PoolInfo) []float64) func(*Session) []float64 {
	return func(sess *Session) []float64 {
		if pi := sess.poolSnapshot(); pi != nil {
			return pick(pi)
		}
		return nil
	}
}

func fromTier(pick func(ti *gtree.TierInfo) []float64) func(*Session) []float64 {
	return fromPool(func(pi *PoolInfo) []float64 {
		if pi.Tier == nil {
			return nil
		}
		return pick(pi.Tier)
	})
}

var sessionFamilies = []sessionFamily{
	{"gmine_pool_hits_total", "Buffer-pool page hits by session.", "counter", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Hits) })},
	{"gmine_pool_misses_total", "Buffer-pool page misses (disk reads) by session.", "counter", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Misses) })},
	{"gmine_pool_evictions_total", "Buffer-pool evictions by session.", "counter", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Evictions) })},
	{"gmine_pool_resident_frames", "Resident buffer-pool frames by session.", "gauge", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Resident) })},
	{"gmine_pool_capacity_frames", "Buffer-pool frame capacity by session.", "gauge", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Capacity) })},
	{"gmine_pool_pinned_frames",
		"Resident frames currently pinned by in-flight queries, by session " +
			"(non-zero on an idle session means leaked pins).", "gauge", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.PinnedFrames) })},
	{"gmine_pool_read_retries_total",
		"Transient page-read recovery by session: retry (re-read attempts), " +
			"healed (reads recovered by retry), failed (reads that exhausted " +
			"the retry budget and latched a permanent fault).", "counter",
		[]string{"retry", "healed", "failed"},
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.Retry.Retries, pi.Retry.Healed, pi.Retry.Failed) })},
	{"gmine_pool_load_waits_total",
		"Page requests that waited on another reader's in-flight load of the same page, by session.", "counter", nil,
		fromPool(func(pi *PoolInfo) []float64 { return floats(pi.LoadWaits) })},
	{"gmine_session_breaker_state",
		"Session circuit breaker position: 0 closed, 1 open (rejecting), 2 half-open (probe admitted).", "gauge", nil,
		func(sess *Session) []float64 { st, _ := sess.brk.state(); return floats(st) }},
	{"gmine_session_breaker_opens_total",
		"Times each session's circuit breaker opened (including failed half-open probes re-opening it).", "counter", nil,
		func(sess *Session) []float64 { _, opens := sess.brk.state(); return floats(opens) }},
	{"gmine_tier_resident_bytes",
		"Bytes of the decoded CSR held in memory by the hot tier, 0 while nothing is promoted, by session (budget in gmine_tier_budget_bytes).", "gauge", nil,
		fromTier(func(ti *gtree.TierInfo) []float64 { return floats(ti.Bytes) })},
	{"gmine_tier_budget_bytes", "Configured hot-tier byte budget, by session.", "gauge", nil,
		fromTier(func(ti *gtree.TierInfo) []float64 { return floats(ti.Budget) })},
	{"gmine_tier_ops_total",
		"Hot-tier operations by session: whole-graph promotions and demotions, and queries served from memory (hit) vs the paged store (miss).", "counter",
		[]string{"promotion", "demotion", "hit", "miss"},
		fromTier(func(ti *gtree.TierInfo) []float64 { return floats(ti.Promotions, ti.Demotions, ti.Hits, ti.Misses) })},
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
