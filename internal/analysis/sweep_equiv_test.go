package analysis

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/gtree"
)

func analysisFixture(t *testing.T, seed int64, n, m int) (*graph.CSR, *gtree.PagedCSR, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithNodes(n, false)
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rng.Float64()*5+0.1)
	}
	g.Dedup()
	tree, err := gtree.Build(g, gtree.BuildOptions{K: 3, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "an.gtree")
	if err := gtree.Save(tree, graph.ToCSR(g), g.Directed(), g.Label, path, 256); err != nil {
		t.Fatal(err)
	}
	s, err := gtree.OpenFile(path, 24)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	paged, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	return graph.ToCSR(g), paged, g
}

// requireRanks fails unless got equals want bit for bit.
func requireRanks(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", tag, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s node %d: %v != %v", tag, v, got[v], want[v])
		}
	}
}

// requireReport fails unless got equals want structurally, with the float
// power-law fit compared by bits (NaN-safe).
func requireReport(t *testing.T, tag string, got, want AdjacencyReport) {
	t.Helper()
	if a, b := math.Float64bits(got.Degree.PowerLawExponent), math.Float64bits(want.Degree.PowerLawExponent); a != b {
		t.Fatalf("%s: power-law fit bits %x != %x", tag, a, b)
	}
	got.Degree.PowerLawExponent, want.Degree.PowerLawExponent = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report diverged:\n got %+v\nwant %+v", tag, got, want)
	}
}

// TestPageRankAdjShardedBitIdentical: PageRankOptions.Shards is accepted
// and ignored, so a solve asking for any shard count lands on exactly the
// bits of the default solve, on both backends.
func TestPageRankAdjShardedBitIdentical(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		csr, paged, _ := analysisFixture(t, seed, 150+int(seed)*30, 700)
		want := PageRankAdj(csr, PageRankOptions{MaxIter: 60})
		for _, shards := range []int{-1, 1, 2, 8} {
			for name, adj := range map[string]graph.Adjacency{"csr": csr, "paged": paged} {
				requireRanks(t, name, PageRankAdj(adj, PageRankOptions{MaxIter: 60, Shards: shards}), want)
			}
		}
	}
}

// TestReportAdjShardedBitIdentical: ReportAdjSharded ignores its shard
// count and returns exactly ReportAdj's report.
func TestReportAdjShardedBitIdentical(t *testing.T) {
	for _, seed := range []int64{14, 15} {
		csr, paged, g := analysisFixture(t, seed, 220, 900)
		want := ReportAdj(csr, g.Directed())
		for _, shards := range []int{0, 1, 2, 8} {
			for name, adj := range map[string]graph.Adjacency{"csr": csr, "paged": paged} {
				requireReport(t, name, ReportAdjSharded(adj, g.Directed(), shards), want)
			}
		}
	}
}
