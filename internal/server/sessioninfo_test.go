package server

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/graph"
)

// TestSessionInfoCountsBothKinds: a session built from an edge list and a
// session opened from a G-Tree file of the same graph report the same
// node and edge counts, taken from data every engine has, while only the
// opened one reports a buffer pool.
func TestSessionInfoCountsBothKinds(t *testing.T) {
	s, ts := newTestServer(t)
	ds := dblp.SmallFixture()
	dir := t.TempDir()
	epath := filepath.Join(dir, "small.edges")
	f, err := os.Create(epath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, ds.Graph); err != nil {
		t.Fatal(err)
	}
	f.Close()
	eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(dir, "small.gtree")
	if err := eng.SaveTree(tpath, 0); err != nil {
		t.Fatal(err)
	}
	for _, req := range []CreateSessionRequest{
		{Name: "mem", Source: "edges", Path: epath, K: 3, Levels: 3, Seed: 1},
		{Name: "disk", Source: "gtree", Path: tpath},
	} {
		info := addSession(t, s, ts, req)
		if info.Nodes != ds.Graph.NumNodes() || info.Edges != ds.Graph.NumEdges() {
			t.Fatalf("%s session: %d nodes %d edges, want %d and %d",
				req.Name, info.Nodes, info.Edges, ds.Graph.NumNodes(), ds.Graph.NumEdges())
		}
		if disk := req.Source == "gtree"; info.DiskBacked != disk || (info.Pool != nil) != disk {
			t.Fatalf("%s session: diskBacked %t, pool %+v", req.Name, info.DiskBacked, info.Pool)
		}
	}
	h := decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if _, ok := h.Pools["disk"]; !ok || len(h.Pools) != 1 {
		t.Fatalf("healthz pools %v, want the disk session's alone", h.Pools)
	}
}

// objectKeys returns the keys of the JSON object at path (nested object
// keys, empty = the top level) in the order they appear in b.
func objectKeys(t *testing.T, b []byte, path ...string) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	if len(path) > 0 {
		return objectKeys(t, obj[path[0]], path[1:]...)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	var keys []string
	dec.Token() // {
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestPoolWireKeys pins the pool object's wire form: the /healthz pools
// row and the session info's pool carry the same keys in the same order,
// with the tier object last once a tier budget is set.
func TestPoolWireKeys(t *testing.T) {
	gtreePath, _ := saveFixtureTree(t, 256)
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "disk", Source: "gtree", Path: gtreePath, PoolPages: 16, TierBudget: 1 << 30,
	}).Body.Close()
	want := "hits misses evictions loadWaits capacity resident filePages pinnedFrames retry tier"
	read := func(url string) []byte {
		resp := mustGet(t, url)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		url  string
		path []string
	}{
		{ts.URL + "/healthz", []string{"pools", "disk"}},
		{ts.URL + "/sessions/disk", []string{"pool"}},
	} {
		b := read(c.url)
		if got := strings.Join(objectKeys(t, b, c.path...), " "); got != want {
			t.Errorf("%s %v keys: %s, want %s", c.url, c.path, got, want)
		}
		if got := strings.Join(objectKeys(t, b, append(c.path, "retry")...), " "); got != "Retries Healed Failed" {
			t.Errorf("%s retry keys: %s", c.url, got)
		}
		if got := strings.Join(objectKeys(t, b, append(c.path, "tier")...), " "); got != "budget bytes fragments promotions demotions hits misses" {
			t.Errorf("%s tier keys: %s", c.url, got)
		}
	}
}
