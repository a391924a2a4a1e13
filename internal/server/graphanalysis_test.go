package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/graph"
	"repro/internal/storage"
)

// saveFixtureTree persists the small fixture as a G-Tree and as an
// edge list, so one graph can be served memory-backed and disk-backed.
func saveFixtureTree(t *testing.T, pageSize int) (gtreePath, edgesPath string) {
	t.Helper()
	ds := dblp.SmallFixture()
	eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gtreePath = filepath.Join(dir, "small.gtree")
	if err := eng.SaveTree(gtreePath, pageSize); err != nil {
		t.Fatal(err)
	}
	edgesPath = filepath.Join(dir, "small.edges")
	f, err := os.Create(edgesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, ds.Graph); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return gtreePath, edgesPath
}

// TestGraphAnalysisEndpointMatchesAcrossBackends is the endpoint's
// acceptance criterion: GET /sessions/{id}/analysis/graph must return
// identical PageRank, degree and component results for the same graph
// loaded as an in-memory session and as a gtree session — and the
// gtree run must actually have paged (visible in the pool counters).
func TestGraphAnalysisEndpointMatchesAcrossBackends(t *testing.T) {
	_, ts := newTestServer(t)
	gtreePath, edgesPath := saveFixtureTree(t, 256)
	for _, req := range []CreateSessionRequest{
		{Name: "mem", Source: "edges", Path: edgesPath, K: 3, Levels: 3, Seed: 1},
		{Name: "disk", Source: "gtree", Path: gtreePath, PoolPages: 16},
	} {
		resp := postJSON(t, ts.URL+"/sessions", req)
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("create %s: status %d (%s)", req.Name, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	var bodies [2][]byte
	for i, name := range []string{"mem", "disk"} {
		resp := mustGet(t, ts.URL+"/sessions/"+name+"/analysis/graph?topk=10")
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Strip the only legitimately differing field.
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s body not JSON: %v (%s)", name, err, raw)
		}
		delete(m, "session")
		bodies[i], _ = json.Marshal(m)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("whole-graph analysis diverged across backends:\nmem:  %s\ndisk: %s", bodies[0], bodies[1])
	}

	// The response carries real content.
	resp := mustGet(t, ts.URL+"/sessions/mem/analysis/graph")
	body := decodeBody[graphAnalysisResponse](t, resp)
	ds := dblp.SmallFixture()
	if body.Nodes != ds.Graph.NumNodes() || body.Edges != ds.Graph.NumEdges() {
		t.Fatalf("analysis says %d/%d, graph has %d/%d",
			body.Nodes, body.Edges, ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}
	if len(body.TopRanked) != 10 || body.TopRanked[0].PageRank <= 0 || body.TopRanked[0].Label == "" {
		t.Fatalf("ranked listing malformed: %+v", body.TopRanked)
	}
	if body.WeakComponents < 1 || body.LargestComponent < 1 || body.DegreeMax < 1 {
		t.Fatalf("degenerate metrics: %+v", body)
	}

	// Second identical request is a cache hit; a different topk is not.
	r1 := mustGet(t, ts.URL+"/sessions/disk/analysis/graph?topk=10")
	r1.Body.Close()
	if h := r1.Header.Get("X-Gmine-Cache"); h != "hit" {
		t.Fatalf("repeat graph analysis: cache %q, want hit", h)
	}
	r2 := mustGet(t, ts.URL+"/sessions/disk/analysis/graph?topk=3")
	r2.Body.Close()
	if h := r2.Header.Get("X-Gmine-Cache"); h != "miss" {
		t.Fatalf("distinct topk: cache %q, want miss", h)
	}

	// The paged sweep is visible in the /healthz pool counters.
	h := decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	pi, ok := h.Pools["disk"]
	if !ok || pi.Hits+pi.Misses == 0 {
		t.Fatalf("healthz pool counters flat after paged whole-graph analysis: %+v", h.Pools)
	}

	// Bad topk values are 400s.
	for _, q := range []string{"topk=0", "topk=1001", "topk=x"} {
		resp, err := http.Get(ts.URL + "/sessions/disk/analysis/graph?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestGraphAnalysisFaultMapsTo500 corrupts the G-Tree file underneath a
// live session: the paged whole-graph sweep must fail closed as a 500
// (backend fault), never serve a silently wrong report.
func TestGraphAnalysisFaultMapsTo500(t *testing.T) {
	_, ts := newTestServer(t)
	gtreePath, _ := saveFixtureTree(t, 256)
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "disk", Source: "gtree", Path: gtreePath, PoolPages: 8,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d (%s)", resp.StatusCode, b)
	}
	resp.Body.Close()

	// Healthy first.
	mustGet(t, ts.URL+"/sessions/disk/analysis/graph").Body.Close()

	// Flip the checksum byte of every data page; the 8-frame pool forces
	// re-reads on the next sweep.
	raw, err := os.ReadFile(gtreePath)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 256
	for off := 2*pageSize - 1; off < len(raw); off += pageSize {
		raw[off] ^= 0x01
	}
	if err := os.WriteFile(gtreePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A new cache key forces a rebuild over the corrupted pages.
	resp, err = http.Get(ts.URL + "/sessions/disk/analysis/graph?topk=7")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("graph analysis over corrupted file: status %d, want 500 (%s)", resp.StatusCode, b)
	}
}

// faultyDiskSession serves the small fixture's G-Tree file as session
// "disk" through a fault injector, with a breaker that opens on the first
// backend fault. It returns the injector, the leaf ids and a function that
// GETs one leaf's analysis at a seed and returns the status and body.
func faultyDiskSession(t *testing.T) (*storage.FaultInjector, []int, func(leaf, seed int) (int, string)) {
	t.Helper()
	var inj *storage.FaultInjector
	s := New(Config{
		CacheEntries: 8, RequestTimeout: 30 * time.Second,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
		FaultWrap: func(f storage.File) storage.File {
			inj = storage.NewFaultInjector(f, 1)
			return inj
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	gtreePath, _ := saveFixtureTree(t, 256)
	createDiskSession(t, ts, "disk", gtreePath, 8)

	var leaves []int
	for _, c := range decodeBody[treeResponse](t, mustGet(t, ts.URL+"/sessions/disk/tree")).Listing {
		if c.Leaf {
			leaves = append(leaves, int(c.ID))
		}
	}
	if len(leaves) < 2 {
		t.Fatalf("fixture has %d leaves, want two", len(leaves))
	}
	analysis := func(leaf, seed int) (int, string) {
		resp, err := http.Get(ts.URL + "/sessions/disk/analysis?community=" + strconv.Itoa(leaf) + "&seed=" + strconv.Itoa(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	return inj, leaves, analysis
}

// TestLeafAnalysisFaultMapsTo500: a leaf whose blob cannot be read is a
// backend fault like a failed whole-graph sweep. GET …/analysis answers
// 500, not the 400 of a bad community id, and the session's breaker counts
// the failure: with a threshold of one, the next query is refused with 503.
func TestLeafAnalysisFaultMapsTo500(t *testing.T) {
	inj, leaves, analysis := faultyDiskSession(t)
	if code, body := analysis(leaves[0], 1); code != http.StatusOK {
		t.Fatalf("clean leaf analysis: status %d (%s)", code, body)
	}

	// More faults than the pager's retry budget: the first read of the
	// second leaf's blob fails for good.
	inj.Script(slices.Repeat([]storage.FaultKind{storage.FaultErr}, 8)...)
	if code, body := analysis(leaves[1], 3); code != http.StatusInternalServerError {
		t.Fatalf("leaf analysis over a failed read: status %d (%s), want 500", code, body)
	}
	if code, body := analysis(leaves[0], 2); code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker_open") {
		t.Fatalf("query after the leaf fault: status %d (%s), want 503 from the open breaker", code, body)
	}
}

// TestLeafLabelIndexFaultMapsTo500: a leaf's labels come from the label
// index, so on a fresh store a leaf analysis reads the index first. When
// that read fails for good the analysis answers 500, not a report of
// unlabeled nodes, and the fault counts against the session's breaker.
func TestLeafLabelIndexFaultMapsTo500(t *testing.T) {
	inj, leaves, analysis := faultyDiskSession(t)
	// More faults than the pager's retry budget, on the store's next read:
	// the label index's first page.
	inj.Script(slices.Repeat([]storage.FaultKind{storage.FaultErr}, 8)...)
	if code, body := analysis(leaves[0], 1); code != http.StatusInternalServerError || !strings.Contains(body, "label index") {
		t.Fatalf("leaf analysis over a failed label index read: status %d (%s), want 500", code, body)
	}
	if code, body := analysis(leaves[0], 2); code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker_open") {
		t.Fatalf("query after the label index fault: status %d (%s), want 503 from the open breaker", code, body)
	}
}

// TestCreateSessionIgnoresSweepShards: POST /sessions still decodes a body
// carrying the deleted "sweepShards" or "poolQuota" knob (the decoder
// rejects unknown fields) and ignores it — the session answers whole-graph
// analysis with exactly the bytes a session created without it does,
// memory and paged.
func TestCreateSessionIgnoresSweepShards(t *testing.T) {
	_, ts := newTestServer(t)
	gtreePath, edgesPath := saveFixtureTree(t, 256)
	for _, src := range []string{
		`"source":"edges","path":` + jsonQuote(edgesPath) + `,"k":3,"levels":3,"seed":1`,
		`"source":"gtree","path":` + jsonQuote(gtreePath) + `,"poolPages":16`,
	} {
		names := []string{"plain", "sharded", "quota"}
		var bodies [3][]byte
		for i, extra := range []string{"", `,"sweepShards":4`, `,"poolQuota":8`} {
			name := names[i]
			resp, err := http.Post(ts.URL+"/sessions", "application/json",
				strings.NewReader(`{"name":"`+name+`",`+src+extra+`}`))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create %s {%s%s}: status %d (%s)", name, src, extra, resp.StatusCode, b)
			}
			resp = mustGet(t, ts.URL+"/sessions/"+name+"/analysis/graph")
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = bytes.Replace(body, []byte(`"session":"`+name+`"`), []byte(`"session":"s"`), 1)
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatalf("{%s}: %s changed the analysis:\nplain: %s\n%s: %s", src, names[i], bodies[0], names[i], bodies[i])
			}
		}
		for _, name := range names {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
}

func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
