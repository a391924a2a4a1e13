package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
)

// --- Singleflight (cache stampede) -----------------------------------------

// TestCachedResultSingleflight fires many concurrent identical requests at
// a cold key and asserts exactly one build runs — the cache-stampede fix.
// Run under -race: the flight group's result publication must synchronize.
func TestCachedResultSingleflight(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	var builds atomic.Int64
	build := func() ([]byte, string, int, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the stampede window
		return []byte("expensive"), "text/plain", 0, nil
	}
	const n = 32
	var wg sync.WaitGroup
	states := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, state, _, err := s.cachedResult(context.Background(), "k", build)
			if err != nil || string(body) != "expensive" {
				t.Errorf("request %d: body %q err %v", i, body, err)
			}
			states[i] = state
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d builds, want 1", n, got)
	}
	misses, coalesced := 0, 0
	for _, st := range states {
		switch st {
		case "miss":
			misses++
		case "coalesced", "hit":
			coalesced++
		default:
			t.Fatalf("unexpected cache state %q", st)
		}
	}
	if misses != 1 {
		t.Fatalf("%d leaders, want exactly 1 (states %v)", misses, states)
	}
	if st := s.cache.snapshot(); st.Coalesced == 0 {
		t.Fatalf("stats did not record coalesced followers: %+v", st)
	} else if st.Misses != 1 {
		// Misses means "builds actually run", so a stampede of n requests
		// records one miss, not n.
		t.Fatalf("stampede recorded %d misses, want 1: %+v", st.Misses, st)
	}
	// The key is cached now: a late request is a plain hit, no build.
	if _, _, state, _, err := s.cachedResult(context.Background(), "k", build); err != nil || state != "hit" {
		t.Fatalf("post-stampede request: state %q err %v", state, err)
	}
	if builds.Load() != 1 {
		t.Fatal("cached key re-ran the build")
	}
}

// TestCachedResultErrorsNotCached checks a failed build is shared with the
// waiters of its flight but never cached, so the next caller retries.
func TestCachedResultErrorsNotCached(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	var builds atomic.Int64
	failing := func() ([]byte, string, int, error) {
		builds.Add(1)
		return nil, "", http.StatusBadRequest, fmt.Errorf("boom")
	}
	if _, _, _, status, err := s.cachedResult(context.Background(), "k", failing); err == nil || status != http.StatusBadRequest {
		t.Fatalf("want boom/400, got status %d err %v", status, err)
	}
	if _, _, _, _, err := s.cachedResult(context.Background(), "k", failing); err == nil {
		t.Fatal("error was cached")
	}
	if builds.Load() != 2 {
		t.Fatalf("failed build should rerun per request, ran %d times", builds.Load())
	}
}

// TestCachedResultLeaderPanic checks followers of a leader whose build
// panics get an error, not a zero-value 200 body.
func TestCachedResultLeaderPanic(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	inBuild := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		defer func() { _ = recover() }() // net/http would recover the handler goroutine
		_, _, _, _, _ = s.cachedResult(context.Background(), "k", func() ([]byte, string, int, error) {
			close(inBuild)
			<-proceed
			panic("boom")
		})
	}()
	<-inBuild
	type res struct {
		state  string
		status int
		err    error
	}
	got := make(chan res, 1)
	go func() {
		_, _, state, status, err := s.cachedResult(context.Background(), "k", func() ([]byte, string, int, error) {
			t.Error("follower must not build")
			return nil, "", 0, nil
		})
		got <- res{state, status, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	close(proceed)
	r := <-got
	if r.err == nil || r.status != http.StatusInternalServerError {
		t.Fatalf("follower of a panicked leader got state=%q status=%d err=%v, want a 500 error",
			r.state, r.status, r.err)
	}
}

// TestCachedResultFollowerDeadline checks a follower stops waiting for a
// slow leader when its own context ends: it returns the deadline error
// and its 503 status while the leader's build runs on and is cached.
func TestCachedResultFollowerDeadline(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	inBuild := make(chan struct{})
	proceed := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _, _, _ = s.cachedResult(context.Background(), "k", func() ([]byte, string, int, error) {
			close(inBuild)
			<-proceed
			return []byte("slow"), "text/plain", 0, nil
		})
	}()
	<-inBuild
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, state, status, err := s.cachedResult(ctx, "k", func() ([]byte, string, int, error) {
		t.Error("follower must not build")
		return nil, "", 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || status != http.StatusServiceUnavailable || state != "coalesced" {
		t.Fatalf("follower past its deadline: state %q status %d err %v, want coalesced 503 deadline", state, status, err)
	}
	close(proceed)
	<-leaderDone
	if body, _, state, _, err := s.cachedResult(context.Background(), "k", nil); err != nil || state != "hit" || string(body) != "slow" {
		t.Fatalf("leader's result after the follower left: %q state %q err %v", body, state, err)
	}
}

// TestCachedResultInFlightTakesNoSlot: a key whose build is running holds
// no LRU slot. With capacity 2 and two stored keys, both still hit while a
// third key's build is blocked, and storing the third evicts exactly one
// entry, the least recently used.
func TestCachedResultInFlightTakesNoSlot(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	ctx := context.Background()
	body := func(b string) func() ([]byte, string, int, error) {
		return func() ([]byte, string, int, error) { return []byte(b), "text/plain", 0, nil }
	}
	for _, k := range []string{"a", "b"} {
		if _, _, state, _, err := s.cachedResult(ctx, k, body(k)); err != nil || state != "miss" {
			t.Fatalf("store %s: state %q err %v", k, state, err)
		}
	}
	inBuild, proceed, stored := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stored)
		s.cachedResult(ctx, "c", func() ([]byte, string, int, error) {
			close(inBuild)
			<-proceed
			return []byte("c"), "text/plain", 0, nil
		})
	}()
	<-inBuild
	for _, k := range []string{"a", "b"} {
		if got, _, state, _, err := s.cachedResult(ctx, k, nil); err != nil || state != "hit" || string(got) != k {
			t.Fatalf("%s while c builds: %q state %q err %v", k, got, state, err)
		}
	}
	if st := s.cache.snapshot(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("while c builds: %+v, want 2 entries and no eviction", st)
	}
	close(proceed)
	<-stored
	if st := s.cache.snapshot(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after c is stored: %+v, want 2 entries and 1 eviction", st)
	}
	for _, k := range []string{"b", "c"} {
		if _, _, state, _, err := s.cachedResult(ctx, k, nil); err != nil || state != "hit" {
			t.Fatalf("%s after c is stored: state %q err %v", k, state, err)
		}
	}
	if _, _, state, _, _ := s.cachedResult(ctx, "a", body("a")); state != "miss" {
		t.Fatalf("least recently used a: state %q, want miss", state)
	}
}

// TestExtractStampedeSingleBuild exercises the singleflight through the
// full HTTP layer: concurrent identical extracts produce exactly one miss
// (the leader) and serve everyone the same body.
func TestExtractStampedeSingleBuild(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	body := fmt.Sprintf(`{"labels":[%q,%q],"budget":25}`, dblp.NamePhilipYu, dblp.NameFlipKorn)
	const n = 16
	var wg sync.WaitGroup
	headers := make([]string, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json",
				bytes.NewReader([]byte(body)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			headers[i] = resp.Header.Get("X-Gmine-Cache")
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	misses := 0
	for i, h := range headers {
		if h == "miss" {
			misses++
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d served a different body", i)
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses across %d concurrent identical extracts, want 1 (%v)", misses, n, headers)
	}
}

// --- Request validation through the new Normalize path ----------------------

func TestExtractRejectsOutOfRangeOptions(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	for _, body := range []string{
		`{"sources":[1,2],"restart":1.5}`,
		`{"sources":[1,2],"restart":-0.2}`,
	} {
		resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

// TestExtractRejectsOverlongPathBeforeSolve: a maxPathLen above the
// extractor's cap — one such body once made the server allocate 12.6 GB of
// key-path tables on a 3k-node graph and die — is a 400 naming the cap, on
// the extract route and as a batch item, and no RWR runs for either: the
// one RWR stage /metrics counts afterwards is the valid extraction's.
func TestExtractRejectsOverlongPathBeforeSolve(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	limit := fmt.Sprint(extract.MaxPathLenCap)
	resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json",
		bytes.NewReader([]byte(`{"sources":[0],"budget":10,"maxPathLen":1000000}`)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte(limit)) {
		t.Fatalf("extract: status %d (%s), want 400 naming the cap %s", resp.StatusCode, b, limit)
	}
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract/batch", BatchExtractRequest{
		Requests: []ExtractRequest{{Sources: []graph.NodeID{0}, Budget: 10, MaxPathLen: 1000000}},
	})
	out := decodeBody[BatchExtractResponse](t, resp)
	if len(out.Results) != 1 || out.Results[0].Status != http.StatusBadRequest || !strings.Contains(out.Results[0].Error, limit) {
		t.Fatalf("batch item: %+v, want a 400 naming the cap %s", out.Results, limit)
	}
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{Sources: []graph.NodeID{0}, Budget: 10, MaxPathLen: extract.MaxPathLenCap})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("extract at the cap: %d %s", resp.StatusCode, b)
	}
	resp.Body.Close()
	if n := metricValue(t, scrapeMetrics(t, ts), `gmine_query_stage_seconds_count{stage="rwr"}`); n != 1 {
		t.Fatalf("%v RWR stages ran for two rejected bodies and one valid one, want 1", n)
	}
}

// --- Batch endpoint ----------------------------------------------------------

// compactJSON normalizes whitespace, since the batch reply re-indents the
// embedded per-item bodies.
func compactJSON(t *testing.T, b []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact %q: %v", b, err)
	}
	return buf.String()
}

func TestExtractBatch(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")

	// Single-extract responses are the ground truth for batch items.
	single := func(body string) []byte {
		resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("single extract: %d %s", resp.StatusCode, b)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	want0 := single(fmt.Sprintf(`{"labels":[%q,%q],"budget":20}`, dblp.NamePhilipYu, dblp.NameFlipKorn))

	batch := BatchExtractRequest{
		Parallel: 4,
		Requests: []ExtractRequest{
			{Labels: []string{dblp.NamePhilipYu, dblp.NameFlipKorn}, Budget: 20}, // cached above -> hit
			{Labels: []string{dblp.NamePhilipYu, dblp.NameJiaweiHan}, Budget: 15},
			{Labels: []string{"nobody by this name"}},                             // per-item 400
			{Sources: []graph.NodeID{1, 2}, Format: "svg"},                        // rejected in batch
			{Labels: []string{dblp.NamePhilipYu, dblp.NameJiaweiHan}, Budget: 15}, // duplicate of #1
		},
	}
	resp := postJSON(t, ts.URL+"/sessions/dblp/extract/batch", batch)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d %s", resp.StatusCode, b)
	}
	out := decodeBody[BatchExtractResponse](t, resp)
	if out.Count != 5 || out.Succeeded != 3 || out.Failed != 2 {
		t.Fatalf("count/succeeded/failed = %d/%d/%d, want 5/3/2", out.Count, out.Succeeded, out.Failed)
	}
	if len(out.Results) != 5 {
		t.Fatalf("%d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
	}
	// Item 0 was warmed by the single request: exact same body, served
	// from cache.
	if out.Results[0].Status != http.StatusOK || out.Results[0].Cache != "hit" {
		t.Fatalf("item 0: %+v", out.Results[0])
	}
	if compactJSON(t, out.Results[0].Extraction) != compactJSON(t, want0) {
		t.Fatal("batch item 0 body differs from the single-extract response")
	}
	// Items 1 and 4 are identical: two cold copies coalesce (or the later
	// one hits the already-cached result) — only one solve either way.
	if out.Results[1].Status != http.StatusOK || out.Results[4].Status != http.StatusOK {
		t.Fatalf("dup items failed: %+v / %+v", out.Results[1], out.Results[4])
	}
	if !bytes.Equal(out.Results[1].Extraction, out.Results[4].Extraction) {
		t.Fatal("duplicate items returned different bodies")
	}
	solves := 0
	for _, idx := range []int{1, 4} {
		if out.Results[idx].Cache == "miss" {
			solves++
		}
	}
	if solves > 1 {
		t.Fatalf("duplicate items both ran the solve: %+v / %+v", out.Results[1], out.Results[4])
	}
	// Per-item failures carry status + error, no extraction.
	if out.Results[2].Status != http.StatusBadRequest || out.Results[2].Error == "" {
		t.Fatalf("item 2: %+v", out.Results[2])
	}
	if out.Results[3].Status != http.StatusBadRequest || out.Results[3].Error == "" {
		t.Fatalf("item 3 (svg) should be rejected: %+v", out.Results[3])
	}
}

func TestExtractBatchValidation(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{"requests":[]}`, http.StatusBadRequest},
		{"malformed", `{"requests":`, http.StatusBadRequest},
		{"unknown field", `{"requestz":[{}]}`, http.StatusBadRequest},
		{"no such session", `{"requests":[{"sources":[1]}]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		url := ts.URL + "/sessions/dblp/extract/batch"
		if c.name == "no such session" {
			url = ts.URL + "/sessions/ghost/extract/batch"
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Oversize batch bounces with the configured cap in the message.
	over := BatchExtractRequest{Requests: make([]ExtractRequest, s.cfg.MaxBatch+1)}
	resp := postJSON(t, ts.URL+"/sessions/dblp/extract/batch", over)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("exceeds server cap")) {
		t.Fatalf("oversize batch: %d %s", resp.StatusCode, b)
	}
}
