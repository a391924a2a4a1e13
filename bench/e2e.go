package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/bench/wire"
)

// endToEndUnits lists the end-to-end metrics every untraced run prints;
// BENCHMARK.json carries the same names with directions and bounds.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"p50_ms":         "ms",
	"p95_ms":         "ms",
}

// crossCheckRequests is how many of a compute-paged run's requests are
// replayed against a memory server afterwards for byte equality.
const crossCheckRequests = 6

// runEndToEnd is the untraced run: setupRepeats full set-ups, then one
// measured window of closed-loop traffic against the last server.
func runEndToEnd(p paths, w workload, opt options) int {
	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	var (
		rd     *ready
		setups []float64
		g      *graphFacts
	)
	for i := 0; i < repeats; i++ {
		if rd != nil {
			rd.sv.stop()
		}
		var err error
		if rd, err = setUp(p, w, opt, g); err != nil {
			return fail(err)
		}
		g = rd.facts.g
		setups = append(setups, rd.setupS)
	}
	defer rd.sv.stop()

	before, err := rd.sv.healthz()
	if err != nil {
		return fail(err)
	}
	rs := drive(rd.sv, g, rd.stream, w.clients, time.Duration(opt.seconds)*time.Second)
	after, err := rd.sv.healthz()
	if err != nil {
		return fail(err)
	}
	rss := rd.sv.peakRSSMB()

	rep := &report{Workload: w.name, Why: w.why, Environment: newFingerprint(p, w, opt, rd)}
	rep.Result.Attempted = len(rs.samples)
	for _, s := range rs.samples {
		if s.err != nil {
			rep.Result.Failed++
			if len(rep.Failures) < 10 {
				rep.Failures = append(rep.Failures, s.err.Error())
			}
		}
	}
	if rep.Result.Attempted == 0 {
		return fail(fmt.Errorf("%s: no request completed in %ds", w.name, opt.seconds))
	}

	all := latencies(rs.samples, func(s sample) bool { return s.counted })
	if len(all) == 0 {
		return fail(fmt.Errorf("%s: no client completed a whole request cycle in %ds", w.name, opt.seconds))
	}
	rep.Result.Metrics = map[string]metric{}
	for name, v := range map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": rs.rate,
		"p50_ms":         percentile(all, 0.50),
		"p95_ms":         percentile(all, 0.95),
	} {
		rep.Result.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	rep.Classes = map[string]classSummary{}
	for _, class := range []string{wire.ClassNav, wire.ClassExtract, wire.ClassAnalyze} {
		if l := latencies(rs.samples, func(s sample) bool { return s.counted && s.req.Class == class }); len(l) > 0 {
			rep.Classes[class] = summarize(l)
		}
	}
	d := healthDelta(before, after)
	rep.Reported = map[string]metric{
		"bench.client_idle_ratio": {rs.idle.Seconds() / (rs.wall.Seconds() * float64(w.clients)), "ratio"},
		"server.peak_rss_mb":      {rss, "MB"},
		"server.cache_hit_ratio":  {d.cacheHitRatio(), "ratio"},
		"server.cache_coalesced":  {float64(d.coalesced), "count"},
		"storage.pool_hit_ratio":  {d.poolHitRatio(), "ratio"},
		"storage.pool_evictions":  {float64(d.poolEvictions), "count"},
		"setup_s.min":             {minOf(setups), "s"},
		"setup_s.max":             {maxOf(setups), "s"},
	}

	assertTraffic(rep, w, opt, rs.samples, d, after)
	assertSameBodies(rep, rs.samples)
	if w.name == "compute-paged" {
		rd.sv.stop() // free the cores before the memory server builds its tree
		if err := crossCheckMemory(p, rep, rd, rs.samples); err != nil {
			return fail(err)
		}
	}
	return rep.emit(p)
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// delta is what /healthz says changed during the window.
type delta struct {
	cacheHits, cacheMisses, coalesced   uint64
	poolHits, poolMisses, poolEvictions uint64
	retries, retriesFailed              uint64
}

func healthDelta(a, b *healthInfo) delta {
	d := delta{
		cacheHits:   b.Cache.Hits - a.Cache.Hits,
		cacheMisses: b.Cache.Misses - a.Cache.Misses,
		coalesced:   b.Cache.Coalesced - a.Cache.Coalesced,
	}
	pa, pb := a.Pools["default"], b.Pools["default"]
	d.poolHits = pb.Hits - pa.Hits
	d.poolMisses = pb.Misses - pa.Misses
	d.poolEvictions = pb.Evictions - pa.Evictions
	d.retries = pb.Retry.Retries - pa.Retry.Retries
	d.retriesFailed = pb.Retry.Failed - pa.Retry.Failed
	return d
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (d delta) cacheHitRatio() float64 {
	return ratio(d.cacheHits, d.cacheHits+d.cacheMisses+d.coalesced)
}
func (d delta) poolHitRatio() float64 { return ratio(d.poolHits, d.poolHits+d.poolMisses) }

// assertTraffic makes sure the run measured the traffic the workload is
// named for; a violation fails the run even if every response was right.
func assertTraffic(rep *report, w workload, opt options, samples []sample, d delta, after *healthInfo) {
	var hits, extracts, extractHits, shed uint64
	for _, s := range samples {
		if s.cache == "hit" {
			hits++
		}
		if s.status == 503 {
			shed++
		}
		if s.counted && s.req.Class == wire.ClassExtract && s.err == nil {
			extracts++
			if s.cache == "hit" {
				extractHits++
			}
		}
	}
	rep.check("cache-hits-agree", hits == d.cacheHits,
		"X-Gmine-Cache says %d hits, /healthz says %d", hits, d.cacheHits)
	rep.check("no-shedding", shed == 0, "%d responses were 503", shed)
	rep.check("no-read-retries", d.retries == 0 && d.retriesFailed == 0,
		"%d page-read retries, %d exhausted", d.retries, d.retriesFailed)
	pool, disk := after.Pools["default"]
	rep.check("backend-as-configured", disk == w.server.Disk,
		"server reports a buffer pool: %t, workload serves from disk: %t", disk, w.server.Disk)

	switch w.name {
	case "navigate":
		rep.check("navigate-mostly-misses", d.cacheHitRatio() < 0.2,
			"result-cache hit ratio %.3f, want < 0.2", d.cacheHitRatio())
	case "compute-mem", "compute-paged":
		rep.check("compute-never-hits", d.cacheHits == 0 && d.coalesced == 0,
			"%d result-cache hits, %d coalesced, want 0 and 0", d.cacheHits, d.coalesced)
	}
	if w.name == "compute-paged" {
		rep.check("paged-pool-below-file", disk && pool.Capacity < pool.FilePages && (opt.quick || d.poolEvictions > 0),
			"pool %d pages, file %d pages, %d evictions in the window", pool.Capacity, pool.FilePages, d.poolEvictions)
	}
	if w.name == "session-skewed" {
		tierOK := disk && pool.Tier != nil && pool.Tier.Bytes <= pool.Tier.Budget && pool.Tier.Fragments > 0
		detail := "no tier state reported"
		if disk && pool.Tier != nil {
			detail = fmt.Sprintf("tier holds %d bytes in %d fragments under a %d-byte budget",
				pool.Tier.Bytes, pool.Tier.Fragments, pool.Tier.Budget)
		}
		rep.check("tier-active-within-budget", tierOK, "%s", detail)
		// The band needs enough sessions to settle; the smoke test has too few.
		share := ratio(extractHits, extracts)
		rep.check("extract-hit-share", opt.quick || (share >= 0.65 && share <= 0.75),
			"%d of %d extractions were result-cache hits (%.3f), want 0.65..0.75", extractHits, extracts, share)
	}
}

// requestKey identifies a request for body comparison.
func requestKey(r wire.Request) string { return r.Path + "\n" + r.Body }

// assertSameBodies checks that every 200 body for one request is the same
// bytes, so a result-cache hit returns exactly what its first miss did.
func assertSameBodies(rep *report, samples []sample) {
	first := map[string][sha256.Size]byte{}
	compared, differ := 0, 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		k := requestKey(s.req)
		sum, seen := first[k]
		if !seen {
			first[k] = s.sum
			continue
		}
		compared++
		if sum != s.sum {
			differ++
		}
	}
	rep.check("repeat-bodies-identical", differ == 0,
		"%d repeated requests compared with their first answer, %d differ", compared, differ)
}

// crossCheckMemory replays the head of a compute-paged run against a
// memory session of the same fixture: the bodies must be equal byte for
// byte (both sessions are named default, so even the session field agrees).
func crossCheckMemory(p paths, rep *report, rd *ready, samples []sample) error {
	mem, _ := findWorkload("compute-mem")
	sv, _, err := launch(p.gmine, mem.serveArgs(rd.fx))
	if err != nil {
		return err
	}
	defer sv.stop()
	want := map[string][sha256.Size]byte{}
	for _, s := range samples {
		if s.err == nil {
			want[requestKey(s.req)] = s.sum
		}
	}
	compared, differ := 0, 0
	// A few positions past the head in case the window closed mid-list.
	for i := 0; compared < crossCheckRequests && i < 4*crossCheckRequests; i++ {
		req, ok := rd.stream.seq(i)
		if !ok {
			break
		}
		sum, issued := want[requestKey(req)]
		if !issued {
			continue // the window closed before this request's turn
		}
		sm := issue(sv, rd.facts.g, req, false)
		if sm.err != nil {
			return fmt.Errorf("memory cross-check: %w", sm.err)
		}
		compared++
		if sm.sum != sum {
			differ++
		}
	}
	rep.check("paged-equals-memory", compared > 0 && differ == 0,
		"%d paged bodies compared with a memory session's, %d differ", compared, differ)
	return nil
}
