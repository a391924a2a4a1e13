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

// TestTimeoutRetryAfter: the writer wrapped around http.TimeoutHandler
// injects Retry-After + JSON content type on the timeout 503 (the fixed
// TimeoutHandler API offers no header seam of its own), and counts the
// rejection in the overload metric.
func TestTimeoutRetryAfter(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(time.Minute):
		}
	})
	timed := http.TimeoutHandler(slow, 10*time.Millisecond, string(marshalJSON(overloadError{
		Error: "request timed out", Kind: "timeout",
		RetryAfterSeconds: int(timeoutRetryAfter / time.Second),
	})))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/sessions/x/analysis", nil)
	timed.ServeHTTP(&timeoutRetryWriter{ResponseWriter: rec, srv: s}, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timeout status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("timeout Retry-After = %q, want 2", ra)
	}
	if ct := rec.Header().Get("Content-Type"); ct != jsonContentType {
		t.Fatalf("timeout Content-Type = %q, want %q", ct, jsonContentType)
	}
	var oe overloadError
	if err := json.Unmarshal(rec.Body.Bytes(), &oe); err != nil {
		t.Fatalf("timeout body is not overload JSON: %v (%s)", err, rec.Body.String())
	}
	if oe.Kind != "timeout" || oe.RetryAfterSeconds != 2 {
		t.Fatalf("timeout body = %+v", oe)
	}
	if got := s.metrics.overload.With("timeout").Value(); got != 1 {
		t.Fatalf("overload{timeout} = %d, want 1", got)
	}

	// Handler-originated 503s already carry Retry-After and must pass
	// through untouched (no double count, header preserved).
	rec = httptest.NewRecorder()
	w := &timeoutRetryWriter{ResponseWriter: rec, srv: s}
	w.Header().Set("Retry-After", "7")
	w.WriteHeader(http.StatusServiceUnavailable)
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("pre-set Retry-After rewritten to %q", ra)
	}
	if got := s.metrics.overload.With("timeout").Value(); got != 1 {
		t.Fatalf("pass-through 503 double-counted: overload{timeout} = %d", got)
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
