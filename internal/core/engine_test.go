package core

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

func testEngine(t *testing.T) (*Engine, *dblp.Dataset) {
	t.Helper()
	ds := dblp.SmallFixture()
	e, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestBuildEngineBasics(t *testing.T) {
	e, ds := testEngine(t)
	if ti := e.Store().TierInfo(); ti == nil || ti.Fragments != 1 {
		t.Fatalf("built engine's graph is not resident: %+v", ti)
	}
	if g := e.Graph(); g == nil || g.NumNodes() != ds.Graph.NumNodes() || g.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("engine's store does not hold its graph")
	}
	if err := e.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNavigationSession walks from the root to its first child by id, the
// way every caller navigates: the engine keeps no focus, and an id that
// names no community is refused.
func TestNavigationSession(t *testing.T) {
	e, _ := testEngine(t)
	root := e.Tree().Root()
	child := e.Tree().Node(root).Children[0]
	if s, err := e.SceneAt(child, gtree.TomahawkOptions{}); err != nil || s.Focus != child || e.Tree().Node(s.Focus).Parent != root {
		t.Fatalf("scene of the root's first child %d: %v", child, err)
	}
	for _, bad := range []gtree.TreeID{-5, gtree.TreeID(e.Tree().NumCommunities())} {
		if _, err := e.SceneAt(bad, gtree.TomahawkOptions{}); err == nil {
			t.Fatalf("SceneAt accepted community %d", bad)
		}
		if _, err := e.RenderSceneAt(bad, 800, gtree.TomahawkOptions{}); err == nil {
			t.Fatalf("RenderSceneAt accepted community %d", bad)
		}
	}
}

func TestSceneAndRender(t *testing.T) {
	e, _ := testEngine(t)
	svg, err := e.RenderSceneAt(e.Tree().Node(e.Tree().Root()).Children[0], 800, gtree.TomahawkOptions{Grandchildren: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<?xml") || !strings.Contains(svg, "<svg") {
		t.Fatal("scene render is not SVG")
	}
	if !strings.Contains(svg, "<circle") {
		t.Fatal("scene render has no community circles")
	}
}

func TestLeafSubgraphAndMetrics(t *testing.T) {
	e, _ := testEngine(t)
	leaves := e.Tree().Leaves()
	sub, members, err := e.LeafSubgraph(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != len(members) || sub.NumNodes() != e.Tree().Node(leaves[0]).Size {
		t.Fatal("leaf subgraph size mismatch")
	}
	if _, _, err := e.LeafSubgraph(e.Tree().Root()); err == nil {
		t.Fatal("accepted non-leaf")
	}
	rep, err := e.MetricsReport(leaves[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != sub.NumNodes() || rep.Edges != sub.NumEdges() {
		t.Fatal("metrics report inconsistent")
	}
	svg, err := e.RenderLeaf(leaves[0], 600, members[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<circle") {
		t.Fatal("leaf render empty")
	}
}

func TestFindLabelMemoryBacked(t *testing.T) {
	e, ds := testEngine(t)
	hits, err := e.FindLabel(dblp.NameJiaweiHan)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits=%d want 1", len(hits))
	}
	if hits[0].Node != ds.Notables[dblp.NameJiaweiHan] {
		t.Fatal("wrong node for Jiawei Han")
	}
	if _, members, err := e.LeafSubgraph(hits[0].Leaf); err != nil || !slices.Contains(members, hits[0].Node) {
		t.Fatal("hit leaf inconsistent")
	}
}

func TestSaveOpenDiskBackedEngine(t *testing.T) {
	e, ds := testEngine(t)
	path := filepath.Join(t.TempDir(), "dblp.gmine")
	if err := e.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}
	d, err := OpenEngine(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if g := d.Graph(); g == nil || g.NumEdges() != ds.Graph.NumEdges() || g.Label(ds.Notables[dblp.NameKeWang]) != dblp.NameKeWang {
		t.Fatal("opened engine's store does not hold its graph")
	}
	if d.Tree().NumCommunities() != e.Tree().NumCommunities() {
		t.Fatal("community count changed across save/open")
	}
	// Label query via the persisted index.
	hits, err := d.FindLabel(dblp.NameKeWang)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Node != ds.Notables[dblp.NameKeWang] {
		t.Fatal("disk label query wrong")
	}
	// Leaf loading and metrics work from disk.
	leaf := hits[0].Leaf
	if _, _, err := d.LeafSubgraph(leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MetricsReport(leaf, 1); err != nil {
		t.Fatal(err)
	}
	// Saving again over the file it reads is crash-safe: the new file
	// replaces the open one only once complete, and holds the same bytes.
	if err := d.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExtractByLabels(t *testing.T) {
	e, _ := testEngine(t)
	res, err := e.ExtractByLabels(
		[]string{dblp.NamePhilipYu, dblp.NameFlipKorn, dblp.NameGarofalakis},
		extract.Options{Budget: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumNodes() > 30 {
		t.Fatalf("budget exceeded: %d", res.Subgraph.NumNodes())
	}
	// All three sources are present with their labels.
	found := 0
	for _, li := range res.Sources {
		l := res.Subgraph.Label(li)
		if l == dblp.NamePhilipYu || l == dblp.NameFlipKorn || l == dblp.NameGarofalakis {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("found %d source labels, want 3", found)
	}
	if _, err := e.ExtractByLabels([]string{"No Such Author"}, extract.Options{Budget: 5}); err == nil {
		t.Fatal("accepted unknown label")
	}
}

func TestExtractAndBuildPipeline(t *testing.T) {
	e, ds := testEngine(t)
	sources := []graph.NodeID{
		ds.Notables[dblp.NamePhilipYu],
		ds.Notables[dblp.NameFlipKorn],
		ds.Notables[dblp.NameGarofalakis],
	}
	sub, res, err := e.ExtractAndBuild(sources,
		extract.Options{Budget: 60},
		BuildConfig{K: 3, Levels: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumNodes() > 60 {
		t.Fatal("extraction budget exceeded")
	}
	if sub.Tree().Node(sub.Tree().Root()).Size != res.Subgraph.NumNodes() {
		t.Fatal("pipeline tree does not cover the extracted subgraph")
	}
	if err := sub.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	svg := RenderExtraction(res, 600, 1)
	if !strings.Contains(svg, "<circle") {
		t.Fatal("extraction render empty")
	}
}

func TestFullDrawBaseline(t *testing.T) {
	ds := dblp.SmallFixture()
	pos := FullDrawBaseline(ds.Graph, 5, 1)
	if len(pos) != ds.Graph.NumNodes() {
		t.Fatal("baseline layout missing nodes")
	}
}
