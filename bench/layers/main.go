// Command layers is the benchmark's layer probe: it links against the
// module's packages, replays a traced run's requests in process, and times
// the calls into each layer from outside. Every span is recorded by this
// program around a call into the product; nothing inside the product is
// instrumented. The end-to-end driver builds and runs it for --trace 1 and
// reads the JSON it prints last.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"repro/bench/wire"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/graph"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: layers <job.json>")
		os.Exit(2)
	}
	res, err := run(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Printf("%s\n", out)
}

// selfProbeExtractions bounds the serial paged-against-memory comparison.
const selfProbeExtractions = 4

func run(jobPath string) (*wire.ProbeResult, error) {
	b, err := os.ReadFile(jobPath)
	if err != nil {
		return nil, err
	}
	var job wire.Job
	if err := json.Unmarshal(b, &job); err != nil {
		return nil, err
	}
	res := &wire.ProbeResult{Metrics: map[string]float64{}}
	m := res.Metrics
	check := func(name string, ok bool, format string, args ...any) {
		res.Checks = append(res.Checks, wire.Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	advise := func(name string, ok bool, format string, args ...any) {
		res.Checks = append(res.Checks, wire.Check{Name: name, OK: ok, Advisory: true, Detail: fmt.Sprintf(format, args...)})
	}

	mem, err := fixtureProbes(&job, m)
	if err != nil {
		return nil, fmt.Errorf("fixture probes: %w", err)
	}

	// Handler level: the served path, minus HTTP.
	rec := newRecorder()
	sv, err := newServed(&job)
	if err != nil {
		return nil, err
	}
	for _, req := range job.Warmup {
		if code, _, body := sv.do(req); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %.200s", req.Path, code, body)
		}
	}
	pool0, err := sv.pool()
	if err != nil {
		return nil, err
	}
	handled, err := replayHandlers(&job, sv, rec)
	if err != nil {
		return nil, fmt.Errorf("handler replay: %w", err)
	}
	pool1, err := sv.pool()
	if err != nil {
		return nil, err
	}
	var handlerMs []float64
	var reads readSnapshot
	reached := 0 // requests that got past the result cache
	for i, h := range handled {
		if !job.Traced[i] {
			handlerMs = append(handlerMs, h.ms)
		}
		if h.cache != "hit" {
			reached++
			reads.calls += h.reads.calls
			reads.bytes += h.reads.bytes
			reads.ns += h.reads.ns
		}
	}
	per := func(v float64) float64 { return v / float64(max(reached, 1)) }
	m["bench.handler_p50_ms"] = medianOf(handlerMs)
	m["storage.read_calls_per_req"] = per(float64(reads.calls))
	m["storage.read_bytes_per_req"] = per(float64(reads.bytes))
	m["storage.read_ms_per_req"] = per(float64(reads.ns) / 1e6)
	pins := float64(pool1.Hits - pool0.Hits + pool1.Misses - pool0.Misses)
	m["storage.pins_per_req"] = per(pins)
	m["storage.pool_evictions_per_req"] = per(float64(pool1.Evictions - pool0.Evictions))
	if pins > 0 {
		m["storage.pool_hit_ratio"] = float64(pool1.Hits-pool0.Hits) / pins
	}
	m["storage.read_retries"] = float64(pool1.Retry.Retries - pool0.Retry.Retries)
	if t1 := pool1.Tier; t1 != nil {
		hits, misses, promos := t1.Hits, t1.Misses, t1.Promotions
		if t0 := pool0.Tier; t0 != nil {
			hits, misses, promos = hits-t0.Hits, misses-t0.Misses, promos-t0.Promotions
		}
		if hits+misses > 0 {
			m["gtree.tier_frag_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		m["gtree.tier_promotions"] = float64(promos)
	}
	if !job.Server.Disk {
		check("memory-session-reads-nothing", reads.calls == 0, "%d file reads under a memory session", reads.calls)
	}

	// What a result-cache hit costs inside the handler chain, for a small
	// and a large answer.
	res.HandlerMs = make([]float64, len(handled))
	for i, h := range handled {
		res.HandlerMs[i] = h.ms
	}
	timeHit := func(req wire.Request) float64 {
		sv.do(req)
		us := make([]float64, wire.HitProbeRequests)
		for i := range us {
			id := rec.begin(-1, -1, "server.handler(hit)")
			sv.do(req)
			us[i] = float64(rec.end(id).Nanoseconds()) / 1e3
		}
		return medianOf(us)
	}
	res.HitSmallUs, res.HitLargeUs = timeHit(job.HitSmall), timeHit(job.HitLarge)

	// Engine level: the same work called directly, stages hooked.
	tw, err := openTwin(&job, mem)
	if err != nil {
		return nil, err
	}
	engine, err := replayEngine(&job, tw, handled, rec)
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	var serverSelf, coreSelf, rwr, expand, induce, cover []float64
	for i, e := range engine {
		if !e.done {
			continue
		}
		serverSelf = append(serverSelf, (handled[i].ms-e.ms)*1e3)
		cover = append(cover, e.ms/handled[i].ms)
		if job.Requests[i].Kind == wire.KindExtract {
			coreSelf = append(coreSelf, (e.ms-e.rwr-e.expand-e.induce)*1e3)
			rwr, expand, induce = append(rwr, e.rwr), append(expand, e.expand), append(induce, e.induce)
		}
	}
	m["server.self_us"] = medianOf(serverSelf)
	m["core.self_us"] = medianOf(coreSelf)
	m["extract.rwr_ms"] = medianOf(rwr)
	m["extract.expand_ms"] = medianOf(expand)
	m["extract.induce_ms"] = medianOf(induce)
	m["probe.engine_replayed"] = float64(len(cover))
	// The engine call is part of what the handler does; if calling it
	// directly takes clearly longer than the whole handler, the replay is
	// not repeating the handler's work. The two run on different engine
	// instances at different moments, so the comparison is advisory.
	advise("engine-within-handler", len(cover) < 10 || medianOf(cover) <= 1.15,
		"engine call / handler wall, median over %d requests: %.3f (want <= 1.15)", len(cover), medianOf(cover))

	if err := pagedSelfProbe(&job, tw, mem, engine, m, check); err != nil {
		return nil, err
	}

	// Layer sum: per request tree, the self times must add up to the root.
	self := selfTimes(rec.spans)
	rootOf := make([]int, len(rec.spans))
	sum := map[int]int64{}
	for _, s := range rec.spans {
		rootOf[s.ID] = s.ID
		if s.Parent >= 0 {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		sum[rootOf[s.ID]] += self[s.ID]
	}
	worst, trees := 0.0, 0
	for root, total := range sum {
		if d := rec.spans[root].End - rec.spans[root].Start; d > 0 {
			worst = max(worst, math.Abs(float64(total-d))/float64(d))
			trees++
		}
	}
	m["bench.layer_sum_worst_gap"] = worst
	check("layer-sum", worst <= 0.05, "over %d span trees the self times miss their root by at most %.4f of it (want <= 0.05)", trees, worst)

	if err := rec.write(job.SpanFile); err != nil {
		return nil, err
	}
	res.Spans = len(rec.spans)
	return res, nil
}

// pagedSelfProbe solves a few of the run's extractions once more, serially
// (one RWR worker, one shard), on the paged twin and on the memory engine.
// With a single goroutine the counted read time is wall time, so
//
//	gtree.paged_self_ms = paged rwr wall - read time - memory rwr wall
//
// is what pool bookkeeping, checksums and page-run decode cost a solve.
// The two results must also be the same subgraph, bit for bit.
func pagedSelfProbe(job *wire.Job, tw *twin, mem *core.Engine, engine []engineRun,
	m map[string]float64, check func(string, bool, string, ...any)) error {
	if !job.Server.Disk {
		return nil
	}
	var selfMs []float64
	compared, differ := 0, 0
	for i, req := range job.Requests {
		if compared == selfProbeExtractions {
			break
		}
		if req.Kind != wire.KindExtract || !engine[i].done {
			continue
		}
		sources := make([]graph.NodeID, len(req.Want.Sources))
		for j, s := range req.Want.Sources {
			sources[j] = graph.NodeID(s)
		}
		solve := func(e *core.Engine) (float64, *extract.Result, error) {
			rwrMs := 0.0
			opts := extract.Options{Budget: req.Want.Budget, RWR: extract.RWROptions{Restart: req.Want.Restart, Parallel: 1, Shards: 1}}
			opts.StageHook = func(stage string, _ time.Time, d time.Duration) {
				if stage == "rwr" {
					rwrMs = ms(d)
				}
			}
			r, err := e.Extract(sources, opts)
			return rwrMs, r, err
		}
		before := tw.reads.snapshot()
		pagedMs, pagedRes, err := solve(tw.eng)
		if err != nil {
			return fmt.Errorf("paged self probe: %w", err)
		}
		readMs := float64(tw.reads.snapshot().sub(before).ns) / 1e6
		memMs, memRes, err := solve(mem)
		if err != nil {
			return fmt.Errorf("paged self probe (memory): %w", err)
		}
		selfMs = append(selfMs, pagedMs-readMs-memMs)
		compared++
		if !sameExtraction(pagedRes, memRes) {
			differ++
		}
	}
	m["gtree.paged_self_ms"] = medianOf(selfMs)
	if compared > 0 {
		check("paged-equals-memory-engine", differ == 0,
			"%d extractions solved on the paged twin and in memory, %d differ", compared, differ)
	}
	return nil
}
