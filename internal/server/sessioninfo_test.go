package server

import (
	"os"
	"path/filepath"
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
	_, ts := newTestServer(t)
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
		resp := postJSON(t, ts.URL+"/sessions", req)
		info := decodeBody[SessionInfo](t, resp)
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
