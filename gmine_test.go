package gmine_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	gmine "repro"
)

// These tests exercise the public facade end-to-end the way the README's
// quickstart does, so a user following the docs is covered by CI.

func TestFacadeQuickstartFlow(t *testing.T) {
	ds := gmine.SmallDBLP()
	if ds.Graph.NumNodes() == 0 {
		t.Fatal("empty dataset")
	}
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FocusChild(0); err != nil {
		t.Fatal(err)
	}
	svg := eng.RenderScene(900, gmine.TomahawkOptions{Grandchildren: true})
	if !strings.Contains(svg, "<svg") {
		t.Fatal("no svg")
	}
	hits, err := eng.FindLabel(gmine.NameJiaweiHan)
	if err != nil || len(hits) != 1 {
		t.Fatalf("label query: %v, %d hits", err, len(hits))
	}
	res, err := eng.ExtractByLabels([]string{gmine.NamePhilipYu, gmine.NameFlipKorn},
		gmine.ExtractOptions{Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumNodes() > 20 {
		t.Fatal("budget exceeded")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := gmine.NewGraphWithNodes(3, false)
	g.SetLabel(0, "a")
	g.AddEdge(0, 1, 2)
	var buf bytes.Buffer
	if err := gmine.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := gmine.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 3 || back.NumEdges() != 1 || back.Label(0) != "a" {
		t.Fatal("edge list round trip failed via facade")
	}
}

func TestFacadePartitionAndAnalysis(t *testing.T) {
	ds := gmine.SmallDBLP()
	res, err := gmine.Partition(ds.Graph, gmine.PartitionOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := gmine.EdgeCut(ds.Graph, res.Parts); got != res.Cut {
		t.Fatalf("cut mismatch: %g vs %g", got, res.Cut)
	}
	rep := gmine.AnalysisReport(ds.Graph, 30, 1)
	if rep.Nodes != ds.Graph.NumNodes() {
		t.Fatal("analysis report wrong size")
	}
	adj := gmine.ToCSR(ds.Graph)
	if n := gmine.ReportAdj(adj, ds.Graph.Directed()).WeakComponents; n < 1 {
		t.Fatal("no components")
	}
	if len(gmine.LargestComponent(adj)) == 0 {
		t.Fatal("no giant component")
	}
}

func TestFacadeSaveOpen(t *testing.T) {
	ds := gmine.SmallDBLP()
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 3, Levels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.gtree")
	if err := eng.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}
	disk, err := gmine.Open(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if disk.Tree().NumCommunities() != eng.Tree().NumCommunities() {
		t.Fatal("communities changed across persistence")
	}
}

func TestFacadeBaselines(t *testing.T) {
	ds := gmine.SmallDBLP()
	pos := gmine.FullDrawBaseline(ds.Graph, 2, 1)
	if len(pos) != ds.Graph.NumNodes() {
		t.Fatal("full draw baseline wrong size")
	}
}

func TestFacadeServer(t *testing.T) {
	srv := gmine.NewServer(gmine.ServerConfig{})
	info, err := srv.Preload(gmine.CreateSessionRequest{
		Name: "smoke", Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "smoke" || info.Nodes == 0 || info.Communities == 0 {
		t.Fatalf("bad preload info: %+v", info)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sessions/smoke/scene?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "<svg") {
		t.Fatalf("scene over http: status %d body %.80s", resp.StatusCode, body)
	}
}
