package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts the value of the first sample line starting with
// prefix (series name + label key).
func metricValue(t *testing.T, metrics, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q in:\n%s", prefix, metrics)
	return 0
}

// TestMetricsExposition: after a real extraction the scrape is valid
// Prometheus text carrying the query-path families the ISSUE promises —
// HTTP by route, cache ops, per-stage query timings — with non-zero
// values where work actually happened.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, s, "m1")
	resp := postJSON(t, ts.URL+"/sessions/m1/extract", ExtractRequest{
		Sources: []graph.NodeID{1, 5}, Budget: 10,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("extract: status %d body %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	waitFor(t, "extract metrics flush", func() bool {
		m := scrapeMetrics(t, ts)
		return strings.Contains(m, `gmine_http_requests_total{route="POST /sessions/{id}/extract",code="200"} 1`)
	})
	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		"# TYPE gmine_http_requests_total counter",
		"# TYPE gmine_http_request_seconds histogram",
		"# TYPE gmine_query_stage_seconds histogram",
		"# TYPE gmine_result_cache_ops_total counter",
		"# TYPE gmine_http_requests_in_flight gauge",
		"# TYPE gmine_uptime_seconds gauge",
		"gmine_sessions 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The extraction ran rwr/expand/induce inside the engine solve: the
	// per-stage histograms must have observed each exactly once.
	for _, stage := range []string{"open", "solve", "rwr", "expand", "induce"} {
		if got := metricValue(t, m, fmt.Sprintf(`gmine_query_stage_seconds_count{stage="%s"}`, stage)); got != 1 {
			t.Errorf("stage %q count = %g, want 1", stage, got)
		}
	}
	if got := metricValue(t, m, `gmine_result_cache_ops_total{op="miss"}`); got != 1 {
		t.Errorf("cache misses = %g, want 1", got)
	}
}

// TestTraceSidecarPaged: ?trace=1 on a disk-backed extraction returns the
// {"trace","result"} envelope whose id matches the response header, whose
// stages include the engine solve, and whose pool.pins count matches the
// session's buffer-pool counter delta across the request (the ISSUE's
// acceptance criterion, asserted end to end over HTTP).
func TestTraceSidecarPaged(t *testing.T) {
	gtreePath, _ := saveFixtureTree(t, 256)
	s, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "disk", Source: "gtree", Path: gtreePath, PoolPages: 32,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d body %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	// First extraction warms the label index and weighted-degree cache,
	// which pin through the shared pool outside the query's partition.
	resp = postJSON(t, ts.URL+"/sessions/disk/extract", ExtractRequest{
		Sources: []graph.NodeID{1, 5}, Budget: 10,
	})
	resp.Body.Close()

	poolGets := func() uint64 {
		sess, ok := s.reg.get("disk")
		if !ok {
			t.Fatal("session disk missing")
		}
		pi := sess.poolSnapshot()
		return pi.Hits + pi.Misses
	}
	before := poolGets()

	type envelope struct {
		Trace  obs.TraceData   `json:"trace"`
		Result extractResponse `json:"result"`
	}
	resp = postJSON(t, ts.URL+"/sessions/disk/extract?trace=1", ExtractRequest{
		Sources: []graph.NodeID{2, 7}, Budget: 10,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced extract: status %d body %s", resp.StatusCode, b)
	}
	headerID := resp.Header.Get("X-Gmine-Trace-Id")
	env := decodeBody[envelope](t, resp)
	after := poolGets()

	if env.Trace.ID == "" || env.Trace.ID != headerID {
		t.Errorf("trace id %q != header id %q", env.Trace.ID, headerID)
	}
	if env.Result.NodeCount == 0 || len(env.Result.Nodes) == 0 {
		t.Errorf("sidecar swallowed the result: %+v", env.Result)
	}
	stages := map[string]bool{}
	for _, st := range env.Trace.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"open", "solve", "rwr", "expand", "induce"} {
		if !stages[want] {
			t.Errorf("sidecar missing stage %q (have %v)", want, stages)
		}
	}
	var pins int64
	for _, c := range env.Trace.Counts {
		if c.Name == "pool.pins" {
			pins = c.Value
		}
	}
	if pins == 0 {
		t.Fatal("paged extraction reported zero pool pins")
	}
	if want := int64(after - before); pins != want {
		t.Errorf("sidecar pool.pins = %d, pool counter delta = %d", pins, want)
	}
	notes := map[string]string{}
	for _, n := range env.Trace.Notes {
		notes[n.Name] = n.Value
	}
	if notes["cache"] != "miss" {
		t.Errorf("cache note = %q, want miss", notes["cache"])
	}

	// An identical repeat is a cache hit: same result, no engine stages,
	// note says why.
	resp = postJSON(t, ts.URL+"/sessions/disk/extract?trace=1", ExtractRequest{
		Sources: []graph.NodeID{2, 7}, Budget: 10,
	})
	env2 := decodeBody[envelope](t, resp)
	if len(env2.Trace.Stages) != 0 {
		t.Errorf("cache hit recorded engine stages: %+v", env2.Trace.Stages)
	}
	hitNotes := map[string]string{}
	for _, n := range env2.Trace.Notes {
		hitNotes[n.Name] = n.Value
	}
	if hitNotes["cache"] != "hit" {
		t.Errorf("repeat cache note = %q, want hit", hitNotes["cache"])
	}
	if env2.Result.NodeCount != env.Result.NodeCount {
		t.Errorf("cached result drifted: %d != %d nodes", env2.Result.NodeCount, env.Result.NodeCount)
	}
}

// TestHealthzStalePools: while a session holds its write lock, /healthz
// answers at once and leaves that session's pool row out (the session
// stays in the list); once the lock is released the row is back.
func TestHealthzStalePools(t *testing.T) {
	gtreePath, _ := saveFixtureTree(t, 256)
	s, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "disk", Source: "gtree", Path: gtreePath, PoolPages: 16,
	})
	resp.Body.Close()
	// Wedge the session behind its write lock as a delete would.
	sess, _ := s.reg.get("disk")
	sess.mu.Lock()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		sess.mu.Unlock()
		t.Fatal(err)
	}
	h := decodeBody[healthResponse](t, resp)
	sess.mu.Unlock()
	if _, ok := h.Pools["disk"]; ok {
		t.Errorf("write-locked session has a pool row: %+v", h.Pools["disk"])
	}
	if len(h.Sessions) != 1 || h.Sessions[0] != "disk" {
		t.Errorf("sessions %v, want [disk]", h.Sessions)
	}
	h = decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if _, ok := h.Pools["disk"]; !ok {
		t.Error("unlocked session has no pool row")
	}
}

// TestMetricsScrapeUnderLoad hammers extractions (distinct cache keys)
// against concurrent scrapes; run under -race this is the registry's
// integration race test, and every scrape must stay well-formed.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, s, "load")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp := postJSON(t, ts.URL+"/sessions/load/extract", ExtractRequest{
					Sources: []graph.NodeID{graph.NodeID(1 + w), graph.NodeID(5 + i)},
					Budget:  8,
				})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				m := scrapeMetrics(t, ts)
				if !strings.HasPrefix(m, "# HELP") {
					t.Error("scrape output does not start with # HELP")
				}
			}
		}()
	}
	wg.Wait()
	m := scrapeMetrics(t, ts)
	if metricValue(t, m, `gmine_query_stage_seconds_count{stage="solve"}`) == 0 {
		t.Error("no solves recorded under load")
	}
}

// TestBatchItemTraces: batch items carry derived trace IDs and feed the
// batch outcome counters.
func TestBatchItemTraces(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, s, "b1")
	resp := postJSON(t, ts.URL+"/sessions/b1/extract/batch", BatchExtractRequest{
		Requests: []ExtractRequest{
			{Sources: []graph.NodeID{1, 5}, Budget: 8},
			{Sources: []graph.NodeID{-99}}, // out of range: per-item error
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	headerID := resp.Header.Get("X-Gmine-Trace-Id")
	br := decodeBody[BatchExtractResponse](t, resp)
	if br.Succeeded != 1 || br.Failed != 1 {
		t.Fatalf("batch outcome %d/%d, want 1/1", br.Succeeded, br.Failed)
	}
	for i, item := range br.Results {
		want := fmt.Sprintf("%s.%d", headerID, i)
		if item.TraceID != want {
			t.Errorf("item %d trace id = %q, want %q", i, item.TraceID, want)
		}
	}
	// The failed item's error is tagged with ITS trace id, not the parent's.
	if got := br.Results[1].Error; !strings.Contains(got, "[req "+headerID+".1]") {
		t.Errorf("item error %q missing its trace id", got)
	}
	if s.metrics.batchOK.Value() != 1 || s.metrics.batchErr.Value() != 1 {
		t.Errorf("batch counters = %d/%d, want 1/1",
			s.metrics.batchOK.Value(), s.metrics.batchErr.Value())
	}
	var found bool
	m := scrapeMetrics(t, ts)
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, `gmine_batch_items_total{outcome="ok"} 1`) {
			found = true
		}
	}
	if !found {
		t.Error("batch outcome counter missing from scrape")
	}
}
