package gmine_test

import (
	"strings"
	"testing"

	gmine "repro"
)

// TestIntegrationFullPaperPipeline walks the complete public API the way
// the paper's demo session does: generate → build (parallel) → navigate →
// query → mine → extract → render.
func TestIntegrationFullPaperPipeline(t *testing.T) {
	ds := gmine.GenerateDBLP(gmine.DBLPConfig{Scale: 0.02, Seed: 3})
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 5, Levels: 4, Seed: 3, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Tomahawk navigation from the root downwards.
	child := eng.Tree().Node(eng.Tree().Root()).Children[0]
	scene, err := eng.SceneAt(child, gmine.TomahawkOptions{Grandchildren: true})
	if err != nil || scene.Size() == 0 {
		t.Fatalf("scene of s%03d: %v", child, err)
	}
	l := gmine.LayoutScene(eng.Tree(), scene, 400)
	svg := gmine.SceneSVG(eng.Tree(), scene, l, 800)
	if !strings.Contains(svg, "<svg") {
		t.Fatal("scene svg broken")
	}

	// The planted hub's community, from the label index.
	hits, err := eng.FindLabel(gmine.NameJiaweiHan)
	if err != nil || len(hits) != 1 {
		t.Fatalf("label query for the hub: %v, %v", hits, err)
	}

	// Mining metrics on the focused community.
	rep, err := eng.MetricsReport(hits[0].Leaf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes == 0 {
		t.Fatal("empty metrics")
	}

	// Connection subgraph + combined pipeline.
	sub, res, err := eng.ExtractAndBuild(
		[]gmine.NodeID{
			ds.Notables[gmine.NamePhilipYu],
			ds.Notables[gmine.NameFlipKorn],
			ds.Notables[gmine.NameGarofalakis],
		},
		gmine.ExtractOptions{Budget: 50},
		gmine.BuildConfig{K: 3, Levels: 3, Seed: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumNodes() > 50 || sub.Tree().NumCommunities() == 0 {
		t.Fatal("pipeline output wrong")
	}
	if !strings.Contains(gmine.RenderExtraction(res, 500, 1), "<circle") {
		t.Fatal("extraction render broken")
	}
}

func TestIntegrationDirectSubstrates(t *testing.T) {
	// Exercise the remaining facade surface directly.
	g := gmine.NewGraph(false)
	for i := 0; i < 30; i++ {
		g.AddNode("")
	}
	for i := 0; i < 29; i++ {
		g.AddEdge(gmine.NodeID(i), gmine.NodeID(i+1), 1)
	}
	// BuildTree without an engine.
	tr, err := gmine.BuildTree(g, gmine.BuildTreeOptions{K: 2, Levels: 3,
		Partition: gmine.PartitionOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// CSR + RWR: the source holds the most mass.
	power, err := gmine.RWRSet(gmine.ToCSR(g), []gmine.NodeID{15}, gmine.RWROptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range power {
		if power[i] > power[15] {
			t.Fatalf("RWR from 15 ranks node %d above its source", i)
		}
	}
	// ANF on a path.
	anf := gmine.ComputeANF(gmine.ToCSR(g), g.Directed(), gmine.ANFOptions{K: 16, Seed: 1})
	if anf.EffectiveDiameter < 5 {
		t.Fatalf("path-of-30 effective diameter %d suspiciously small", anf.EffectiveDiameter)
	}
	// NMI sanity via facade.
	if gmine.NMI([]int32{0, 0, 1, 1}, []int32{5, 5, 6, 6}) != 1 {
		t.Fatal("facade NMI broken")
	}
	// Force layout + subgraph SVG via facade.
	pos := gmine.ForceLayout(g, gmine.Circle{R: 100}, gmine.ForceOptions{Iterations: 10, Seed: 1})
	if !strings.Contains(gmine.SubgraphSVG(g, pos, nil, 300), "<line") {
		t.Fatal("facade SubgraphSVG broken")
	}
	// Direct analysis helpers.
	adj := gmine.ToCSR(g)
	if d := gmine.AnalysisReport(g, 0, 1).MaxHops; d != 29 {
		t.Fatalf("path-of-30 diameter %d want 29", d)
	}
	if st := gmine.ReportAdj(adj, g.Directed()).Degree; st.Max != 2 {
		t.Fatalf("degree max %d want 2", st.Max)
	}
	if _, n := gmine.StrongComponents(adj); n != 30 && n != 1 {
		// undirected stored both ways -> one SCC
		t.Fatalf("unexpected SCC count %d", n)
	}
}
