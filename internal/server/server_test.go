package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/graph"
)

// newTestServer returns a server plus an httptest frontend over its
// handler (timeout middleware included, like production).
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{CacheEntries: 32, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode body: %v", err)
	}
	return v
}

// createSynthetic builds a small synthetic session over HTTP.
func createSynthetic(t *testing.T, ts *httptest.Server, name string) SessionInfo {
	t.Helper()
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: name, Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: status %d body %s", resp.StatusCode, b)
	}
	return decodeBody[SessionInfo](t, resp)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[healthResponse](t, resp)
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if len(h.Sessions) != 0 {
		t.Fatalf("fresh server has sessions: %v", h.Sessions)
	}
}

// TestJSONBodiesOneLine: every JSON body the server writes — query
// results, ?trace=1 envelopes, batch answers, /healthz, session info,
// errors and the timeout 503 — is valid compact JSON on one line that
// ends in a newline.
func TestJSONBodiesOneLine(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	leaf := -1
	for _, c := range decodeBody[treeResponse](t, mustGet(t, ts.URL+"/sessions/dblp/tree")).Listing {
		if c.Leaf {
			leaf = int(c.ID)
			break
		}
	}
	if leaf < 0 {
		t.Fatal("fixture has no leaf")
	}
	get := func(path string) func() (*http.Response, error) {
		return func() (*http.Response, error) { return http.Get(ts.URL + path) }
	}
	post := func(path string, body any) func() (*http.Response, error) {
		return func() (*http.Response, error) { return postJSON(t, ts.URL+path, body), nil }
	}
	extract := ExtractRequest{Labels: []string{"Philip S. Yu", "Flip Korn"}, Budget: 20}
	timeout := New(Config{CacheEntries: 8, RequestTimeout: 10 * time.Millisecond})
	tts := httptest.NewServer(timeout.Handler())
	t.Cleanup(tts.Close)
	createSynthetic(t, tts, "dblp")
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"scene", get("/sessions/dblp/scene"), http.StatusOK},
		{"scene trace", get("/sessions/dblp/scene?trace=1"), http.StatusOK},
		{"tree", get("/sessions/dblp/tree"), http.StatusOK},
		{"labels", get("/sessions/dblp/labels?prefix=Ph"), http.StatusOK},
		{"leaf analysis", get("/sessions/dblp/analysis?community=" + strconv.Itoa(leaf)), http.StatusOK},
		{"graph analysis", get("/sessions/dblp/analysis/graph"), http.StatusOK},
		{"extract", post("/sessions/dblp/extract", extract), http.StatusOK},
		{"batch", post("/sessions/dblp/extract/batch", BatchExtractRequest{Requests: []ExtractRequest{extract, extract}}), http.StatusOK},
		{"healthz", get("/healthz"), http.StatusOK},
		{"session info", get("/sessions/dblp"), http.StatusOK},
		{"error", get("/sessions/nope/tree"), http.StatusNotFound},
		{"timeout", func() (*http.Response, error) {
			return postJSON(t, tts.URL+"/sessions/dblp/extract", ExtractRequest{
				Labels: []string{"Philip S. Yu", "Flip Korn"}, Budget: 2000,
			}), nil
		}, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.status, body)
		}
		if compactJSON(t, body)+"\n" != string(body) {
			t.Fatalf("%s: body is not compact JSON on one line ending in a newline:\n%q", c.name, body)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	info := createSynthetic(t, ts, "dblp")
	if info.Name != "dblp" || info.Source != "synthetic" {
		t.Fatalf("bad info: %+v", info)
	}
	if info.Nodes == 0 || info.Communities == 0 || info.DiskBacked {
		t.Fatalf("bad build result: %+v", info)
	}

	// Listing and per-session info agree.
	resp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Sessions []SessionInfo `json:"sessions"`
	}](t, resp)
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "dblp" {
		t.Fatalf("bad listing: %+v", list)
	}

	resp, err = http.Get(ts.URL + "/sessions/dblp")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBody[SessionInfo](t, resp); got.Nodes != info.Nodes {
		t.Fatalf("info mismatch: %+v vs %+v", got, info)
	}

	// Tree stats + community listing.
	resp, err = http.Get(ts.URL + "/sessions/dblp/tree")
	if err != nil {
		t.Fatal(err)
	}
	tree := decodeBody[treeResponse](t, resp)
	if tree.Communities == 0 || len(tree.Listing) != tree.Communities {
		t.Fatalf("bad tree response: communities=%d listing=%d", tree.Communities, len(tree.Listing))
	}

	// Scene as JSON at the root: level-1 children present.
	resp, err = http.Get(ts.URL + "/sessions/dblp/scene")
	if err != nil {
		t.Fatal(err)
	}
	scene := decodeBody[sceneResponse](t, resp)
	if scene.Focus != 0 || len(scene.Children) == 0 {
		t.Fatalf("bad root scene: %+v", scene)
	}

	// Scene as SVG.
	resp, err = http.Get(ts.URL + "/sessions/dblp/scene?format=svg&size=400")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "image/svg") {
		t.Fatalf("scene svg content type = %q", ct)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Fatalf("scene svg is not svg: %.80s", svg)
	}

	// Label queries: the generator plants the paper's notables.
	resp, err = http.Get(ts.URL + "/sessions/dblp/labels?q=" + escapeQuery(dblp.NameJiaweiHan))
	if err != nil {
		t.Fatal(err)
	}
	hits := decodeBody[struct {
		Hits []labelHitJSON `json:"hits"`
	}](t, resp)
	if len(hits.Hits) != 1 || hits.Hits[0].Label != dblp.NameJiaweiHan {
		t.Fatalf("label query: %+v", hits)
	}
	resp, err = http.Get(ts.URL + "/sessions/dblp/labels?prefix=Jiawei&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	hits = decodeBody[struct {
		Hits []labelHitJSON `json:"hits"`
	}](t, resp)
	if len(hits.Hits) == 0 {
		t.Fatal("prefix query found nothing")
	}

	// Analysis of the default (largest) leaf.
	resp, err = http.Get(ts.URL + "/sessions/dblp/analysis")
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeBody[analysisResponse](t, resp)
	if rep.Nodes == 0 || len(rep.TopRanked) == 0 {
		t.Fatalf("bad analysis: %+v", rep)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/dblp", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sessions/dblp/tree")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tree after delete: status %d, want 404", resp.StatusCode)
	}
}

func escapeQuery(s string) string {
	return strings.ReplaceAll(s, " ", "%20")
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		got  int
		want int
	}{
		{"unknown session tree", get("/sessions/nope/tree"), http.StatusNotFound},
		{"unknown session scene", get("/sessions/nope/scene"), http.StatusNotFound},
		{"unknown session extract", post("/sessions/nope/extract", `{"sources":[0]}`), http.StatusNotFound},
		{"malformed extract body", post("/sessions/dblp/extract", `{"sources":`), http.StatusBadRequest},
		{"unknown extract field", post("/sessions/dblp/extract", `{"srcs":[1]}`), http.StatusBadRequest},
		{"extract without sources", post("/sessions/dblp/extract", `{}`), http.StatusBadRequest},
		{"extract bad label", post("/sessions/dblp/extract", `{"labels":["No Such Author"]}`), http.StatusBadRequest},
		{"extract bad mode", post("/sessions/dblp/extract", `{"sources":[0],"mode":"xor"}`), http.StatusBadRequest},
		{"extract source out of range", post("/sessions/dblp/extract", `{"sources":[99999999]}`), http.StatusBadRequest},
		{"extract over budget cap", post("/sessions/dblp/extract", `{"sources":[0],"budget":1000000}`), http.StatusBadRequest},
		{"scene bad focus", get("/sessions/dblp/scene?focus=zzz"), http.StatusBadRequest},
		{"scene invalid community", get("/sessions/dblp/scene?focus=99999"), http.StatusBadRequest},
		{"scene bad format", get("/sessions/dblp/scene?format=png"), http.StatusBadRequest},
		{"labels without query", get("/sessions/dblp/labels"), http.StatusBadRequest},
		{"analysis bad community", get("/sessions/dblp/analysis?community=abc"), http.StatusBadRequest},
		{"analysis non-leaf community", get("/sessions/dblp/analysis?community=0"), http.StatusBadRequest},
		{"delete unknown session", func() int {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/nope", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}(), http.StatusNotFound},
		{"create duplicate", post("/sessions", `{"name":"dblp","source":"synthetic","scale":0.01}`), http.StatusConflict},
		{"create bad source", post("/sessions", `{"name":"x","source":"oracle"}`), http.StatusBadRequest},
		{"create bad name", post("/sessions", `{"name":"a b!","source":"synthetic"}`), http.StatusBadRequest},
		{"create dot-dot name", post("/sessions", `{"name":"..","source":"synthetic"}`), http.StatusBadRequest},
		{"create missing path", post("/sessions", `{"name":"x","source":"edges"}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestExtractAndCache(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	body := ExtractRequest{
		Labels: []string{dblp.NamePhilipYu, dblp.NameFlipKorn},
		Budget: 20,
	}

	resp := postJSON(t, ts.URL+"/sessions/dblp/extract", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("extract: status %d body %s", resp.StatusCode, b)
	}
	if h := resp.Header.Get("X-Gmine-Cache"); h != "miss" {
		t.Fatalf("first extract cache header = %q, want miss", h)
	}
	first := decodeBody[extractResponse](t, resp)
	if first.NodeCount == 0 || len(first.Sources) != 2 || first.TotalGoodness <= 0 {
		t.Fatalf("bad extraction: %+v", first)
	}

	// The identical query is served from the LRU without re-solving.
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract", body)
	if h := resp.Header.Get("X-Gmine-Cache"); h != "hit" {
		t.Fatalf("second extract cache header = %q, want hit", h)
	}
	second := decodeBody[extractResponse](t, resp)
	if second.NodeCount != first.NodeCount || second.TotalGoodness != first.TotalGoodness {
		t.Fatalf("cache served a different result: %+v vs %+v", second, first)
	}

	// Source order is canonicalized, so the reversed query also hits.
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{
		Labels: []string{dblp.NameFlipKorn, dblp.NamePhilipYu},
		Budget: 20,
	})
	if h := resp.Header.Get("X-Gmine-Cache"); h != "hit" {
		t.Fatalf("reordered extract cache header = %q, want hit", h)
	}
	resp.Body.Close()

	// Defaults are canonicalized too: an omitted budget and the explicit
	// default (30) share one cache entry.
	for i, want := range []string{"miss", "hit"} {
		req := ExtractRequest{Labels: []string{dblp.NamePhilipYu, dblp.NameFlipKorn}}
		if i == 1 {
			req.Budget = 30
		}
		resp = postJSON(t, ts.URL+"/sessions/dblp/extract", req)
		resp.Body.Close()
		if h := resp.Header.Get("X-Gmine-Cache"); h != want {
			t.Fatalf("default-budget request %d: cache header %q, want %q", i, h, want)
		}
	}

	// Hits are observable on /healthz.
	if st := s.cache.snapshot(); st.Hits < 2 || st.Entries == 0 {
		t.Fatalf("cache stats: %+v", st)
	}

	// SVG format goes through the render layer.
	body.Format = "svg"
	resp = postJSON(t, ts.URL+"/sessions/dblp/extract", body)
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(svg), "<svg") {
		t.Fatalf("extract svg is not svg: %.80s", svg)
	}
}

// TestExtractKSoftKeyCanonical: k-softAND clamps k to [1, sources], so
// the cache key does too — k 0 and 1, and k 9 and 2 over two sources, each
// compute the same bytes and share one entry.
func TestExtractKSoftKeyCanonical(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	labels := []string{dblp.NamePhilipYu, dblp.NameFlipKorn}
	for _, ks := range [][2]int{{0, 1}, {9, 2}, {-3, 1}} {
		var bodies [2][]byte
		for i, k := range ks {
			resp := postJSON(t, ts.URL+"/sessions/dblp/extract", ExtractRequest{Labels: labels, Budget: 12, Mode: "ksoft", K: k})
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("k=%d: status %d: %s", k, resp.StatusCode, bodies[i])
			}
			want := "miss"
			if i == 1 || ks[0] == -3 {
				want = "hit" // k -3 clamps to the k 1 entry of the first pair
			}
			if h := resp.Header.Get("X-Gmine-Cache"); h != want {
				t.Fatalf("k=%d: cache header %q, want %q", k, h, want)
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("k %d and %d: bodies differ", ks[0], ks[1])
		}
	}
}

func TestSceneCache(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Get(ts.URL + "/sessions/dblp/scene?format=svg")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h := resp.Header.Get("X-Gmine-Cache"); h != want {
			t.Fatalf("scene request %d: cache header %q, want %q", i, h, want)
		}
	}
}

func TestDiskBackedSession(t *testing.T) {
	_, ts := newTestServer(t)

	// Persist a small G-Tree out of band.
	ds := dblp.SmallFixture()
	eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.gtree")
	if err := eng.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "disk", Source: "gtree", Path: path,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("open gtree: status %d body %s", resp.StatusCode, b)
	}
	info := decodeBody[SessionInfo](t, resp)
	if !info.DiskBacked || info.Nodes == 0 {
		t.Fatalf("bad disk-backed info: %+v", info)
	}

	// Navigation, labels and analysis work against the paged file.
	resp, err = http.Get(ts.URL + "/sessions/disk/scene?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk scene: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sessions/disk/analysis")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk analysis: status %d", resp.StatusCode)
	}

	// Extraction runs out of core over the paged CSR and matches a
	// memory-backed session over the same graph field for field.
	resp = postJSON(t, ts.URL+"/sessions/disk/extract", ExtractRequest{Sources: []int32{0, 1}})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("disk extract: status %d, want 200 (%s)", resp.StatusCode, b)
	}
	got := decodeBody[extractResponse](t, resp)
	if len(got.Nodes) == 0 || got.TotalGoodness <= 0 {
		t.Fatalf("disk extract returned empty result: %+v", got)
	}

	// Per-session info and /healthz expose the buffer-pool counters.
	info = decodeBody[SessionInfo](t, mustGet(t, ts.URL+"/sessions/disk"))
	if info.Pool == nil || info.Pool.FilePages == 0 {
		t.Fatalf("disk session info misses pool stats: %+v", info.Pool)
	}
	if info.Pool.Hits+info.Pool.Misses == 0 {
		t.Fatal("pool counters flat after paged extraction")
	}
	h := decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if _, ok := h.Pools["disk"]; !ok {
		t.Fatalf("healthz misses pool stats for disk session: %+v", h.Pools)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, b)
	}
	return resp
}

// TestDiskBackedExtractMatchesMemory opens the same graph as a memory
// session and a gtree session and requires identical extraction
// responses (modulo the session name), single and batch, serial and
// parallel.
func TestDiskBackedExtractMatchesMemory(t *testing.T) {
	_, ts := newTestServer(t)

	ds := dblp.SmallFixture()
	eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.gtree")
	if err := eng.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}
	// The memory session must partition the same graph; write it as an
	// edge list so both sessions share one input.
	epath := filepath.Join(t.TempDir(), "small.edges")
	f, err := os.Create(epath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, ds.Graph); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, req := range []CreateSessionRequest{
		{Name: "mem", Source: "edges", Path: epath, K: 3, Levels: 3, Seed: 1},
		{Name: "disk", Source: "gtree", Path: path, PoolPages: 32},
	} {
		resp := postJSON(t, ts.URL+"/sessions", req)
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("create %s: status %d (%s)", req.Name, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	normalize := func(r extractResponse) extractResponse {
		r.Session = ""
		return r
	}
	for _, req := range []ExtractRequest{
		{Sources: []int32{0, 5}, Budget: 12},
		{Sources: []int32{1, 8, 3}, Budget: 20, Mode: "or", Parallel: 3},
		{Labels: []string{dblp.NamePhilipYu, dblp.NameFlipKorn}, Budget: 15, Mode: "ksoft", K: 2},
	} {
		mem := decodeBody[extractResponse](t, postJSON(t, ts.URL+"/sessions/mem/extract", req))
		disk := decodeBody[extractResponse](t, postJSON(t, ts.URL+"/sessions/disk/extract", req))
		memJS, _ := json.Marshal(normalize(mem))
		diskJS, _ := json.Marshal(normalize(disk))
		if !bytes.Equal(memJS, diskJS) {
			t.Fatalf("memory and paged extraction diverged for %+v:\nmem:  %s\ndisk: %s", req, memJS, diskJS)
		}
	}

	// Batch extraction routes through the same shared paged view.
	batch := BatchExtractRequest{Requests: []ExtractRequest{
		{Sources: []int32{0, 5}, Budget: 12},
		{Sources: []int32{2, 9}, Budget: 10},
	}}
	resp := postJSON(t, ts.URL+"/sessions/disk/extract/batch", batch)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("disk batch: status %d (%s)", resp.StatusCode, b)
	}
	br := decodeBody[BatchExtractResponse](t, resp)
	if br.Succeeded != 2 || br.Failed != 0 {
		t.Fatalf("disk batch: %d ok / %d failed: %+v", br.Succeeded, br.Failed, br.Results)
	}
}

func TestEdgeListSession(t *testing.T) {
	_, ts := newTestServer(t)
	// Write a labeled edge list via the graph package round-trip.
	ds := dblp.SmallFixture()
	path := filepath.Join(t.TempDir(), "small.edges")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, ds.Graph); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "edges", Source: "edges", Path: path, K: 3, Levels: 3,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("edge session: status %d body %s", resp.StatusCode, b)
	}
	info := decodeBody[SessionInfo](t, resp)
	if info.Nodes != ds.Graph.NumNodes() {
		t.Fatalf("edge session nodes = %d, want %d", info.Nodes, ds.Graph.NumNodes())
	}
}

func TestServeAndShutdown(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
}

// TestSessionErrorsDoNotEchoFileBytes: a session over a file that is not
// an edge list or a G-Tree answers 400 naming the path and the failed
// check, and quotes none of the file's bytes back to the client.
func TestSessionErrorsDoNotEchoFileBytes(t *testing.T) {
	_, ts := newTestServer(t)
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte("db_password=hunter2 extra\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{"edges", "gtree"} {
		resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{Name: "s-" + source, Source: source, Path: path})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", source, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte(path)) {
			t.Errorf("%s: error does not name the path: %s", source, body)
		}
		for _, leak := range []string{"hunter2", "db_p"} {
			if bytes.Contains(body, []byte(leak)) {
				t.Errorf("%s: error echoes the file's bytes (%q): %s", source, leak, body)
			}
		}
	}
}
