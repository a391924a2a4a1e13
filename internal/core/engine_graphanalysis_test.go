package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
)

// buildMemAndDisk returns a memory engine over the small fixture and a
// disk engine paging the same graph from a freshly saved file.
func buildMemAndDisk(t *testing.T, poolPages int) (*Engine, *Engine, string) {
	t.Helper()
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ga.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk, path
}

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

// TestAnalyzeGraphFaultMapsToErrPagedIO corrupts the file underneath a
// live disk engine and requires the whole-graph sweep to fail closed with
// ErrPagedIO (the server's 500) instead of returning a silently wrong
// report built from empty neighbor reads.
func TestAnalyzeGraphFaultMapsToErrPagedIO(t *testing.T) {
	_, disk, path := buildMemAndDisk(t, 8)
	// Warm call works.
	if _, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 5); err != nil {
		t.Fatal(err)
	}
	// Flip the checksum byte of every data page. The 8-frame pool is far
	// smaller than the file, so the next sweep must re-read corrupted
	// pages.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 256
	for off := 2*pageSize - 1; off < len(raw); off += pageSize {
		raw[off] ^= 0x01
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 5); !errors.Is(err, ErrPagedIO) {
		t.Fatalf("AnalyzeGraph over corrupted file: %v, want ErrPagedIO", err)
	}
	// Extraction fails closed the same way.
	if _, err := disk.Extract([]graph.NodeID{0, 1}, extract.Options{Budget: 5}); !errors.Is(err, ErrPagedIO) {
		t.Fatalf("Extract over corrupted file: %v, want ErrPagedIO", err)
	}
}
