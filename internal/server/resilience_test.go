package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/storage"
)

// saveSmallTree persists the small fixture as a gtree file and returns its
// path, for disk-backed resilience tests.
func saveSmallTree(t *testing.T, pageSize int) string {
	t.Helper()
	ds := dblp.SmallFixture()
	eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.gtree")
	if err := eng.SaveTree(path, pageSize); err != nil {
		t.Fatal(err)
	}
	return path
}

func createDiskSession(t *testing.T, ts *httptest.Server, name, path string, poolPages int) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: name, Source: "gtree", Path: path, PoolPages: poolPages,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("open gtree: status %d body %s", resp.StatusCode, b)
	}
	resp.Body.Close()
}

// TestAdmissionShed: with MaxInFlight slots all held, heavy query routes
// shed with 503 + Retry-After + structured overload JSON, while liveness
// and session-management routes stay reachable. Releasing the slot admits
// traffic again. The slot is occupied directly through the admission
// channel, so the test is deterministic — no racing slow requests.
func TestAdmissionShed(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: 30 * time.Second, MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSynthetic(t, ts, "dblp")

	s.admission <- struct{}{} // hold the only slot
	resp := postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{Sources: []int32{0, 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("shed Retry-After = %q, want 1", ra)
	}
	oe := decodeBody[overloadError](t, resp)
	if oe.Kind != "shed" || oe.RetryAfterSeconds != 1 || oe.Error == "" {
		t.Fatalf("shed body = %+v", oe)
	}
	if got := s.metrics.overload.With("shed").Value(); got != 1 {
		t.Fatalf("overload{shed} = %d, want 1", got)
	}

	// Liveness and session introspection are never behind admission: an
	// overloaded server must stay observable.
	for _, url := range []string{ts.URL + "/healthz", ts.URL + "/metrics", ts.URL + "/sessions", ts.URL + "/sessions/dblp"} {
		resp := mustGet(t, url)
		resp.Body.Close()
	}

	<-s.admission // release the slot
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{Sources: []int32{0, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release extract status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBreakerOpensAndRecovers drives the full failure lifecycle over HTTP:
// a corrupted backing file fails queries with plain 500s (no Retry-After)
// until the per-session breaker opens; then queries short-circuit with
// 503 kind=breaker_open and an honest Retry-After; after the file is
// restored and the cooldown elapses, the half-open probe succeeds and
// traffic resumes. The breaker metrics track the episode.
func TestBreakerOpensAndRecovers(t *testing.T) {
	const cooldown = 150 * time.Millisecond
	s := New(Config{
		CacheEntries: 8, RequestTimeout: 30 * time.Second,
		BreakerThreshold: 3, BreakerCooldown: cooldown,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// 4KB pages keep whole-graph sweeps cheap (~120 pages per pass); the
	// tiny pool forces queries to keep reading from disk, so corruption
	// cannot hide behind cached frames.
	path := saveSmallTree(t, 4096)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	createDiskSession(t, ts, "disk", path, 4)

	// Distinct budgets per call: the result cache must never answer for
	// the disk.
	budget := 9
	extract := func() *http.Response {
		budget++
		return postJSON(t, ts.URL+"/sessions/disk/extract", ExtractRequest{Sources: []int32{0, 1}, Budget: budget})
	}
	resp := extract()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean extract status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Flip one byte in every page after the superblock: every paged read
	// now fails its checksum, and the retry layer correctly refuses to
	// heal a fault that is really on disk.
	corrupted := bytes.Clone(pristine)
	for off := 4096 + 13; off < len(corrupted); off += 4096 {
		corrupted[off] ^= 0xFF
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	// Threshold consecutive permanent faults: plain 500s, no Retry-After —
	// permanent faults must stay distinguishable from transient overload.
	for i := 0; i < 3; i++ {
		resp := extract()
		if resp.StatusCode != http.StatusInternalServerError {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("corrupted extract %d: status %d body %s, want 500", i, resp.StatusCode, b)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("permanent 500 carries Retry-After %q", ra)
		}
		resp.Body.Close()
	}

	// Breaker open: the next query fails fast with the structured 503.
	resp = extract()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open extract status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker-open 503 missing Retry-After")
	}
	oe := decodeBody[overloadError](t, resp)
	if oe.Kind != "breaker_open" || oe.RetryAfterSeconds < 1 {
		t.Fatalf("breaker-open body = %+v", oe)
	}
	if got := s.metrics.overload.With("breaker_open").Value(); got != 1 {
		t.Fatalf("overload{breaker_open} = %d, want 1", got)
	}

	// Repair the file; after one cooldown the half-open probe reads clean,
	// closes the breaker, and traffic resumes.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	resp = extract()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("probe extract status = %d body %s, want 200", resp.StatusCode, b)
	}
	resp.Body.Close()
	resp = extract()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery extract status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	body, _ := io.ReadAll(mustGet(t, ts.URL+"/metrics").Body)
	metrics := string(body)
	if !strings.Contains(metrics, `gmine_session_breaker_opens_total{session="disk"} 1`) {
		t.Errorf("metrics miss breaker opens count:\n%s", grepLines(metrics, "breaker"))
	}
	if !strings.Contains(metrics, `gmine_session_breaker_state{session="disk"} 0`) {
		t.Errorf("recovered breaker not reported closed:\n%s", grepLines(metrics, "breaker"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// requireTimeout503 checks resp is the request-timeout rejection: 503,
// Retry-After 2, JSON content type and the structured overload body.
func requireTimeout503(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("%s: status %d, want 503 (body %s)", what, resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("%s: Retry-After %q, want 2", what, ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != jsonContentType {
		t.Fatalf("%s: Content-Type %q, want %q", what, ct, jsonContentType)
	}
	const want = `{"error":"request timed out","kind":"timeout","retryAfterSeconds":2}`
	if got := compactJSON(t, body); got != want {
		t.Fatalf("%s: body %s, want %s", what, got, want)
	}
}

// TestRequestTimeoutExtraction: an extraction that outlives the request
// deadline answers the timeout 503 and counts one overload{timeout}.
func TestRequestTimeoutExtraction(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSynthetic(t, ts, "dblp")
	resp := postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{
		Labels: []string{"Philip S. Yu", "Flip Korn"}, Budget: 2000,
	})
	requireTimeout503(t, "extraction", resp)
	if got := s.metrics.overload.With("timeout").Value(); got != 1 {
		t.Fatalf("overload{timeout} = %d, want 1", got)
	}
}

// TestRequestTimeoutWhileBuilding: queries to a session whose build is
// still running stop waiting at their deadline and answer the timeout 503,
// while the build goes on and commits.
func TestRequestTimeoutWhileBuilding(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	created := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(CreateSessionRequest{Name: "big", Source: "synthetic", Scale: 0.1, Seed: 1})
		resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(b))
		if err != nil {
			created <- 0
			return
		}
		resp.Body.Close()
		created <- resp.StatusCode
	}()
	waitFor(t, "session reserved", func() bool { _, ok := s.reg.get("big"); return ok })

	queries := map[string]func() (*http.Response, error){
		"info":  func() (*http.Response, error) { return http.Get(ts.URL + "/sessions/big") },
		"tree":  func() (*http.Response, error) { return http.Get(ts.URL + "/sessions/big/tree") },
		"scene": func() (*http.Response, error) { return http.Get(ts.URL + "/sessions/big/scene") },
		"leaf":  func() (*http.Response, error) { return http.Get(ts.URL + "/sessions/big/analysis") },
		"labels": func() (*http.Response, error) {
			return http.Get(ts.URL + "/sessions/big/labels?prefix=Ph")
		},
		"extract": func() (*http.Response, error) {
			return http.Post(ts.URL+"/sessions/big/extract", "application/json",
				strings.NewReader(`{"sources":[1,5]}`))
		},
	}
	type answer struct {
		name    string
		resp    *http.Response
		err     error
		elapsed time.Duration
	}
	answers := make(chan answer, len(queries))
	for name, q := range queries {
		go func() {
			start := time.Now()
			resp, err := q()
			answers <- answer{name, resp, err, time.Since(start)}
		}()
	}
	for range queries {
		a := <-answers
		if a.err != nil {
			t.Fatalf("%s: %v", a.name, a.err)
		}
		requireTimeout503(t, a.name, a.resp)
		if a.elapsed > time.Second {
			t.Fatalf("%s answered after %v, want within 1s", a.name, a.elapsed)
		}
	}
	select {
	case code := <-created:
		t.Fatalf("build finished (status %d) before the queries timed out; the test needs a slower build", code)
	default:
	}
	if code := <-created; code != http.StatusCreated {
		t.Fatalf("build status %d, want 201", code)
	}
	if got, want := s.metrics.overload.With("timeout").Value(), uint64(len(queries)); got != want {
		t.Fatalf("overload{timeout} = %d, want %d", got, want)
	}
	resp := mustGet(t, ts.URL+"/sessions/big/tree?listing=false")
	resp.Body.Close()
}

// TestRequestTimeoutPassedNeverAnswers200: once the deadline has passed,
// every query route answers the timeout 503 instead of its 200, while
// session creation and deletion, which run without a deadline, still
// succeed.
func TestRequestTimeoutPassedNeverAnswers200(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSynthetic(t, ts, "dblp")
	gets := []string{
		"/healthz", "/metrics", "/sessions", "/sessions/dblp", "/sessions/dblp/tree",
		"/sessions/dblp/scene", "/sessions/dblp/scene?format=svg&grandchildren=true",
		"/sessions/dblp/analysis", "/sessions/dblp/analysis/graph", "/sessions/dblp/labels?prefix=Ph",
	}
	for _, path := range gets {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		requireTimeout503(t, path, resp)
	}
	posts := map[string]string{
		"/sessions/dblp/extract":       `{"sources":[1,5],"budget":10}`,
		"/sessions/dblp/extract/batch": `{"requests":[{"sources":[1,5],"budget":10}]}`,
	}
	for path, body := range posts {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		requireTimeout503(t, path, resp)
	}
	if got, want := s.metrics.overload.With("timeout").Value(), uint64(len(gets)+len(posts)); got != want {
		t.Fatalf("overload{timeout} = %d, want %d", got, want)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/dblp", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete under a passed deadline: status %d, want 200", resp.StatusCode)
	}
}

// TestBatchCancelledClient: a batch whose client has gone away stops
// dispatching, cancels in-flight items, marks every item 499 (client
// closed request) and counts each in the cancellation metric — no orphan
// solves keep burning the pool after the disconnect.
func TestBatchCancelledClient(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")

	reqs := make([]ExtractRequest, 4)
	for i := range reqs {
		// Distinct budgets: no result-cache hits or coalescing between items.
		reqs[i] = ExtractRequest{Sources: []int32{0, 1}, Budget: 10 + i}
	}
	b, err := json.Marshal(BatchExtractRequest{Requests: reqs, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/sessions/dblp/extract/batch", bytes.NewReader(b)).WithContext(ctx)
	req.SetPathValue("id", "dblp")
	rec := httptest.NewRecorder()
	cancels0 := s.metrics.cancels.Value()
	s.handleExtractBatch(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d body %s", rec.Code, rec.Body.String())
	}
	var resp BatchExtractResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Failed != len(reqs) || resp.Succeeded != 0 {
		t.Fatalf("cancelled batch tally: %+v", resp)
	}
	for _, item := range resp.Results {
		if item.Status != statusClientClosedRequest {
			t.Fatalf("item %d status = %d (%s), want 499", item.Index, item.Status, item.Error)
		}
		if !strings.Contains(item.Error, "cancel") {
			t.Fatalf("item %d error %q does not mention cancellation", item.Index, item.Error)
		}
	}
	if got := s.metrics.cancels.Value() - cancels0; got != uint64(len(reqs)) {
		t.Fatalf("cancelled queries metric moved by %d, want %d", got, len(reqs))
	}
}

// TestListSessionsWhileBuilding: GET /sessions answers at once while a
// session is still building, listing only the sessions already built;
// the building one joins the list once it commits.
func TestListSessionsWhileBuilding(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSynthetic(t, ts, "ready")
	// A reserved session is what a build in progress looks like.
	building, err := s.reg.reserve("building")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.reg.abort(building) })
	start := time.Now()
	list := decodeBody[struct {
		Sessions []SessionInfo `json:"sessions"`
	}](t, mustGet(t, ts.URL+"/sessions"))
	elapsed := time.Since(start)
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "ready" {
		t.Fatalf("list while building: %+v, want the built session alone", list.Sessions)
	}
	if elapsed > time.Second {
		t.Fatalf("list while building answered after %v, want at once", elapsed)
	}
}

// TestBatchDeadlineBeforeDispatch: a batch whose request deadline has
// passed answers the timeout 503, and its items — dispatched or not — are
// deadline failures, not client cancellations: the cancellation metric
// does not move.
func TestBatchDeadlineBeforeDispatch(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	reqs := make([]ExtractRequest, 16)
	for i := range reqs {
		reqs[i] = ExtractRequest{Sources: []int32{0, 1}, Budget: 10 + i}
	}
	b, err := json.Marshal(BatchExtractRequest{Requests: reqs, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest("POST", "/sessions/dblp/extract/batch", bytes.NewReader(b)).WithContext(ctx)
	req.SetPathValue("id", "dblp")
	rec := httptest.NewRecorder()
	cancels0 := s.metrics.cancels.Value()
	s.handleExtractBatch(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch past its deadline: status %d body %s, want 503", rec.Code, rec.Body.String())
	}
	if got := s.metrics.cancels.Value() - cancels0; got != 0 {
		t.Fatalf("batch past its deadline counted %d cancelled queries, want 0", got)
	}
}

// TestChaosWrappedServer: Config.FaultWrap (the -chaos serve flag) injects
// seeded transient faults under every disk-backed session the server
// opens; queries still answer 200 — the retry layer heals below the
// queries' fault latches — and the healing shows up in the session pool stats and the
// retry metrics family.
func TestChaosWrappedServer(t *testing.T) {
	// 2% rate over ~12k eligible reads per extract (100-odd power
	// iterations × ~120 4KB pages through a 16-frame pool) injects
	// hundreds of faults per query while keeping the odds of readAttempts
	// consecutive injections on one read negligible — and the seeded RNG
	// makes the run reproducible besides.
	fc, err := storage.ParseFaultConfig("rate=0.02,seed=5,kinds=flip+err+short")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{CacheEntries: 8, RequestTimeout: 30 * time.Second, FaultWrap: fc.Wrap})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createDiskSession(t, ts, "disk", saveSmallTree(t, 4096), 16)

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/sessions/disk/extract", ExtractRequest{Sources: []int32{0, 1}, Budget: 10 + i})
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("extract %d under chaos: status %d body %s", i, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	info := decodeBody[SessionInfo](t, mustGet(t, ts.URL+"/sessions/disk"))
	if info.Pool == nil {
		t.Fatal("disk session missing pool info")
	}
	if info.Pool.Retry.Healed == 0 {
		t.Fatalf("chaos wrap healed nothing: retry stats %+v", info.Pool.Retry)
	}
	if info.Pool.Retry.Failed != 0 {
		t.Fatalf("transient-only chaos latched %d permanent read failures", info.Pool.Retry.Failed)
	}

	body, _ := io.ReadAll(mustGet(t, ts.URL+"/metrics").Body)
	if !strings.Contains(string(body), `gmine_pool_read_retries_total{session="disk",op="healed"}`) {
		t.Errorf("metrics miss retry family:\n%s", grepLines(string(body), "retries"))
	}
	if !strings.Contains(string(body), `gmine_pool_load_waits_total{session="disk"}`) {
		t.Errorf("metrics miss the load-wait counter:\n%s", grepLines(string(body), "gmine_pool_"))
	}
}
