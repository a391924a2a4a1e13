package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
)

// TestAnalyzeGraphMatchesAcrossBackends is the endpoint's acceptance
// property at the engine level: the whole-graph report — degrees,
// components, self-loops, PageRank, ranked labels — must be identical
// (float bits included) whether the graph is resident or paged through a
// small buffer pool.
func TestAnalyzeGraphMatchesAcrossBackends(t *testing.T) {
	mem, disk, _ := buildMemAndDisk(t, 16)
	want, err := mem.AnalyzeGraph(analysis.PageRankOptions{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.AdjacencyReport, got.AdjacencyReport) {
		t.Fatalf("adjacency report diverged:\nmem:  %+v\ndisk: %+v", want.AdjacencyReport, got.AdjacencyReport)
	}
	if want.Directed != got.Directed {
		t.Fatal("directedness diverged")
	}
	for i := range want.PageRank {
		if math.Float64bits(want.PageRank[i]) != math.Float64bits(got.PageRank[i]) {
			t.Fatalf("pagerank[%d]: %v vs %v", i, want.PageRank[i], got.PageRank[i])
		}
	}
	if !reflect.DeepEqual(want.TopRanked, got.TopRanked) || !reflect.DeepEqual(want.TopLabels, got.TopLabels) {
		t.Fatalf("ranked listing diverged:\nmem:  %v %v\ndisk: %v %v",
			want.TopRanked, want.TopLabels, got.TopRanked, got.TopLabels)
	}
	// Sanity against the source graph, not just cross-backend agreement.
	ds := dblp.SmallFixture()
	if want.Nodes != ds.Graph.NumNodes() || want.Edges != ds.Graph.NumEdges() {
		t.Fatalf("report says %d nodes / %d edges, graph has %d / %d",
			want.Nodes, want.Edges, ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}
	if len(want.TopRanked) != 10 || want.TopLabels[0] == "" {
		t.Fatalf("ranked listing malformed: %v %v", want.TopRanked, want.TopLabels)
	}
	if want.WeakComponents < 1 || want.LargestComponent < 1 {
		t.Fatalf("degenerate connectivity: %d comps, largest %d", want.WeakComponents, want.LargestComponent)
	}
}
