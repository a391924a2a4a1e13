package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/wire"
)

// perLayerUnits lists every per-layer metric a traced run prints, with its
// unit; BENCHMARK.json carries the same names with their directions. A
// metric whose layer the workload does not reach reads 0.
var perLayerUnits = map[string]string{
	"client.nav_p50_ms":     "ms",
	"client.extract_p50_ms": "ms",
	"client.analyze_p50_ms": "ms",

	"server.http_overhead_us": "us",
	"server.self_us":          "us",
	"server.cache_hit_ratio":  "ratio",
	"server.cache_coalesced":  "count",
	"server.shed_count":       "count",
	"server.peak_rss_mb":      "MB",

	"core.self_us":         "us",
	"core.session_open_ms": "ms",

	"extract.rwr_ms":    "ms",
	"extract.expand_ms": "ms",
	"extract.induce_ms": "ms",

	"analysis.pagerank_ms":    "ms",
	"analysis.report_adj_ms":  "ms",
	"analysis.leaf_report_ms": "ms",

	"graph.sweep_ns_per_halfedge": "ns/halfedge",
	"graph.shard_speedup":         "ratio",
	"graph.to_csr_ms":             "ms",

	"gtree.paged_sweep_ns_per_halfedge.cold": "ns/halfedge",
	"gtree.paged_sweep_ns_per_halfedge.warm": "ns/halfedge",
	"gtree.tiered_sweep_ns_per_halfedge":     "ns/halfedge",
	"gtree.tier_frag_hit_ratio":              "ratio",
	"gtree.tier_promotions":                  "count",
	"gtree.paged_self_ms":                    "ms",
	"gtree.scene_us":                         "us",
	"gtree.label_prefix_us":                  "us",
	"gtree.load_leaf_us":                     "us",
	"gtree.build_s":                          "s",
	"gtree.save_s":                           "s",
	"gtree.file_bytes_per_halfedge":          "bytes/halfedge",

	"storage.read_calls_per_req":     "count",
	"storage.read_bytes_per_req":     "bytes",
	"storage.read_ms_per_req":        "ms",
	"storage.pool_hit_ratio":         "ratio",
	"storage.pool_evictions_per_req": "count",
	"storage.pins_per_req":           "count",
	"storage.readpage_us":            "us",
	"storage.rawread_us":             "us",
	"storage.pool_get_ns":            "ns",
	"storage.read_retries":           "count",

	"partition.partition_s":     "s",
	"partition.edge_cut_ratio":  "ratio",
	"layout.scene_us":           "us",
	"render.scene_svg_us":       "us",
	"obs.trace_overhead_ratio":  "ratio",
	"bench.client_idle_ratio":   "ratio",
	"bench.handler_p50_ms":      "ms",
	"bench.client_p50_ms":       "ms",
	"bench.layer_sum_worst_gap": "ratio",
}

// passShare is the part of --seconds the sequential HTTP pass takes; the
// probe's engine replay gets the same again.
const passShare = 0.4

// runTraced is the --trace 1 run. One client walks the head of the
// workload's stream over HTTP, a seeded half of the requests carrying
// ?trace=1; then the layer probe replays the same requests in process and
// times each layer from outside. Its numbers are per-layer only: the
// end-to-end metrics come from the untraced run.
func runTraced(p paths, w workload, opt options) int {
	rd, err := setUp(p, w, opt, nil)
	if err != nil {
		return fail(err)
	}
	defer rd.sv.stop()
	if !w.server.Disk { // the probes need the tree file whatever the workload serves from
		if _, err := p.buildTree(rd.fx); err != nil {
			return fail(err)
		}
	}
	g := rd.facts.g

	before, err := rd.sv.healthz()
	if err != nil {
		return fail(err)
	}
	window := time.Duration(float64(opt.seconds) * passShare * float64(time.Second))
	rs := driveSequential(rd.sv, g, rd.stream, window, opt.seed)
	after, err := rd.sv.healthz()
	if err != nil {
		return fail(err)
	}
	// What HTTP costs a request, by answer size: two result-cache hits, a
	// small JSON scene and a large SVG one, timed here over HTTP and by the
	// probe inside the handler chain.
	hitSmall, hitLarge := sceneRequest(rd.facts.t, 0, false), sceneRequest(rd.facts.t, 0, true)
	var hitUs, hitBytes [2]float64
	for i, req := range []wire.Request{hitSmall, hitLarge} {
		issue(rd.sv, g, req, false)
		us := make([]float64, wire.HitProbeRequests)
		for j := range us {
			sm := issue(rd.sv, g, req, false)
			if sm.err != nil || sm.cache != "hit" {
				return fail(fmt.Errorf("hit probe %s: cache %q, err %v", req.Path, sm.cache, sm.err))
			}
			us[j], hitBytes[i] = sm.ms*1e3, float64(sm.bytes)
		}
		hitUs[i] = median(us)
	}
	rss := rd.sv.peakRSSMB()
	rd.sv.stop()

	rep := &report{Workload: w.name, Why: w.why, Trace: 1, Environment: newFingerprint(p, w, opt, rd)}
	rep.Result.Attempted = len(rs.samples)
	if rep.Result.Attempted == 0 {
		return fail(fmt.Errorf("%s: no request completed in the traced pass", w.name))
	}
	job := wire.Job{
		Workload: w.name, Seed: opt.seed, Edges: rd.fx.edges, Tree: rd.fx.tree,
		K: fixtureK, Levels: fixtureLevels, Server: w.server,
		Warmup:        warmUpRequests(w, g, rd.facts.t),
		ReplaySeconds: float64(opt.seconds) * passShare,
		HitSmall:      hitSmall,
		HitLarge:      hitLarge,
		SpanFile:      filepath.Join(p.out, "trace-"+w.name+".json"),
		Quick:         opt.quick,
	}
	nav, _ := findWorkload("navigate")
	paged, _ := findWorkload("compute-paged")
	skew, _ := findWorkload("session-skewed")
	job.NavPool, job.PagedPool = nav.server.PoolPages, paged.server.PoolPages
	job.TierPool, job.TierBudget = skew.server.PoolPages, skew.server.TierBudget
	var shed float64
	for _, s := range rs.samples {
		if s.err != nil {
			rep.Result.Failed++
			if len(rep.Failures) < 10 {
				rep.Failures = append(rep.Failures, s.err.Error())
			}
		}
		if s.status == 503 {
			shed++
		}
		job.Requests = append(job.Requests, s.req)
		job.Traced = append(job.Traced, s.traced)
	}

	probe, err := runProbe(p, job)
	if err != nil {
		return fail(err)
	}
	rep.Checks = append(rep.Checks, probe.Checks...)

	m := probe.Metrics
	d := healthDelta(before, after)
	m["server.cache_hit_ratio"] = d.cacheHitRatio()
	m["server.cache_coalesced"] = float64(d.coalesced)
	m["server.shed_count"] = shed
	m["server.peak_rss_mb"] = rss
	m["server.http_overhead_us"] = hitUs[0]
	m["bench.client_idle_ratio"] = rs.idle.Seconds() / rs.wall.Seconds()
	for class, name := range map[string]string{
		wire.ClassNav: "client.nav_p50_ms", wire.ClassExtract: "client.extract_p50_ms", wire.ClassAnalyze: "client.analyze_p50_ms",
	} {
		l := latencies(rs.samples, func(s sample) bool { return s.req.Class == class && !s.traced })
		m[name] = percentile(l, 0.50)
	}

	// Tracing overhead: the same kinds of request with and without
	// ?trace=1, compared kind by kind so the mix cannot tilt the ratio.
	m["obs.trace_overhead_ratio"] = traceOverhead(rs.samples)

	// The replay measures the served path only if, per request, the
	// handler's wall plus what HTTP costs an answer of that size lands
	// where the client's clock did. HTTP's cost is taken from the two hit
	// probes: (client - handler) at the small size, growing linearly to
	// (client - handler) at the large one.
	netSmall, netLarge := hitUs[0]-probe.HitSmallUs, hitUs[1]-probe.HitLargeUs
	perByte := (netLarge - netSmall) / (hitBytes[1] - hitBytes[0])
	// The comparison is made on the request kinds (result-cache hits and
	// misses apart) that take the client a millisecond or more. Below that
	// the HTTP stack outweighs the handler, and a two-point model of it is
	// not good to 15%.
	type pair struct{ client, predicted []float64 }
	byKind := map[string]*pair{}
	var all pair
	for i, s := range rs.samples {
		if s.traced || s.err != nil {
			continue
		}
		kind := s.req.Kind + "/" + s.cache
		pr := byKind[kind]
		if pr == nil {
			pr = &pair{}
			byKind[kind] = pr
		}
		pred := probe.HandlerMs[i] + (netSmall+perByte*(float64(s.bytes)-hitBytes[0]))/1e3
		pr.client, pr.predicted = append(pr.client, s.ms), append(pr.predicted, pred)
		all.client, all.predicted = append(all.client, s.ms), append(all.predicted, pred)
	}
	var slow pair
	for _, pr := range byKind {
		if median(pr.client) >= 1 {
			slow.client, slow.predicted = append(slow.client, pr.client...), append(slow.predicted, pr.predicted...)
		}
	}
	m["bench.client_p50_ms"] = median(all.client)
	gapOf := func(pr pair) float64 { return math.Abs(median(pr.predicted)-median(pr.client)) / median(pr.client) }
	if len(slow.client) < 10 {
		rep.advise("handler-matches-client", true,
			"not compared: %d untraced requests of kinds that take the client 1 ms or more; over all %d, handler + HTTP p50 %.3f ms, client p50 %.3f ms (gap %.3f)",
			len(slow.client), len(all.client), median(all.predicted), median(all.client), gapOf(all))
	} else {
		rep.advise("handler-matches-client", gapOf(slow) <= 0.15,
			"kinds of 1 ms or more: p50 of in-process handler wall + HTTP cost (%.0f us + %.1f us/KiB) %.3f ms, client p50 %.3f ms, %d untraced requests, gap %.3f (want <= 0.15); over all %d requests the gap is %.3f",
			netSmall, perByte*1024, median(slow.predicted), median(slow.client), len(slow.client), gapOf(slow), len(all.client), gapOf(all))
	}

	rep.Result.Metrics = map[string]metric{}
	for name, unit := range perLayerUnits {
		rep.Result.Metrics[name] = metric{m[name], unit}
	}
	rep.Reported = map[string]metric{
		"probe.engine_replayed": {m["probe.engine_replayed"], "count"},
		"probe.handler_hit_us":  {probe.HitSmallUs, "us"},
		"probe.spans":           {float64(probe.Spans), "count"},
	}
	return rep.emit(p)
}

// traceOverhead is the traced/untraced p50 ratio, taken per request kind
// over the kinds ?trace=1 changes, then combined as the median of ratios.
func traceOverhead(samples []sample) float64 {
	byKind := map[string][2][]float64{}
	for _, s := range samples {
		if s.err != nil || !enveloped(s.req.Kind) {
			continue
		}
		pair := byKind[s.req.Kind]
		i := 0
		if s.traced {
			i = 1
		}
		pair[i] = append(pair[i], s.ms)
		byKind[s.req.Kind] = pair
	}
	var ratios []float64
	for _, pair := range byKind {
		if len(pair[0]) >= 3 && len(pair[1]) >= 3 {
			ratios = append(ratios, median(pair[1])/median(pair[0]))
		}
	}
	sort.Float64s(ratios)
	return median(ratios)
}

// runProbe builds the layer probe, hands it the job and reads its result.
func runProbe(p paths, job wire.Job) (*wire.ProbeResult, error) {
	if err := p.buildProbe(); err != nil {
		return nil, err
	}
	jobPath := filepath.Join(p.out, "job-"+job.Workload+".json")
	b, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(jobPath, b, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(p.probe, jobPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probe: %v\n%s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res wire.ProbeResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("layer probe output: %w", err)
	}
	return &res, nil
}
