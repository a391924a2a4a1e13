package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer makes a bytes.Buffer safe to share between the server's
// logger goroutines and test assertions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds or the deadline passes. Request
// metrics and logs are flushed in a middleware defer that runs after the
// response reaches the client, so assertions on them must tolerate that
// tiny window. The deadline is generous for -race runs on a loaded
// machine.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestIDHeader: every response carries a fresh X-Gmine-Trace-Id,
// and IDs do not repeat across requests.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Gmine-Trace-Id")
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestMiddlewareRouteMetrics: status and latency land in /metrics under
// the matched ServeMux pattern — proving the middleware sits inside the
// timeout handler where r.Pattern is visible — and unmatched paths share
// one bounded label instead of exploding cardinality.
func TestMiddlewareRouteMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/sessions/nope", "/no/such/route"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	waitFor(t, "route metrics", func() bool {
		m := scrape()
		return strings.Contains(m, `gmine_http_requests_total{route="GET /healthz",code="200"} 1`) &&
			strings.Contains(m, `gmine_http_requests_total{route="GET /sessions/{id}",code="404"} 1`) &&
			strings.Contains(m, `route="unmatched",code="404"`) &&
			strings.Contains(m, `gmine_http_request_seconds_count{route="GET /healthz"} 1`)
	})
	if m := scrape(); strings.Contains(m, "/sessions/nope") || strings.Contains(m, "/no/such/route") {
		t.Fatalf("raw request paths leaked into metric labels:\n%s", m)
	}
}

// TestMiddlewarePanicContained: a panicking handler yields a JSON 500
// (not a dropped connection), the panic counter moves, and the server
// keeps serving.
func TestMiddlewarePanicContained(t *testing.T) {
	logs := &lockedBuffer{}
	s := New(Config{Logger: slog.New(slog.NewTextHandler(logs, nil))})
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.instrument(boom))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("body = %q", body)
	}
	id := resp.Header.Get("X-Gmine-Trace-Id")
	waitFor(t, "panic counter", func() bool { return s.metrics.panics.Value() == 1 })
	waitFor(t, "panic log line", func() bool {
		l := logs.String()
		return strings.Contains(l, "handler panic") && strings.Contains(l, "kaboom") &&
			strings.Contains(l, id)
	})
}

// TestRequestLogLine: one structured line per request, correlated by the
// same ID the client got in the header.
func TestRequestLogLine(t *testing.T) {
	logs := &lockedBuffer{}
	s := New(Config{
		CacheEntries:   8,
		RequestTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Gmine-Trace-Id")
	waitFor(t, "request log line", func() bool {
		l := logs.String()
		return strings.Contains(l, "msg=request") &&
			strings.Contains(l, "id="+id) &&
			strings.Contains(l, "route=\"GET /healthz\"") &&
			strings.Contains(l, "status=200")
	})
}
