package gtree

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// labeledCommunityGraph builds a community graph with labels "a<i>".
func labeledCommunityGraph(rng *rand.Rand, k, size int) *graph.Graph {
	g := communityGraph(rng, k, size, 0.3, 0.02)
	for u := 0; u < g.NumNodes(); u++ {
		g.SetLabel(graph.NodeID(u), "author-"+itoa(u))
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func saveLoad(t *testing.T, g *graph.Graph, k, levels, pageSize, pool int) (*Tree, *Store) {
	t.Helper()
	tr := buildTest(t, g, k, levels)
	path := filepath.Join(t.TempDir(), "tree.gmine")
	if err := Save(tr, g, path, pageSize); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFile(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return tr, st
}

func TestSaveOpenTopologyIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := labeledCommunityGraph(rng, 4, 20)
	tr, st := saveLoad(t, g, 2, 3, 512, 16)
	lt := st.Tree()
	if lt.NumCommunities() != tr.NumCommunities() || lt.K != tr.K || lt.Levels != tr.Levels {
		t.Fatalf("topology mismatch: %d/%d communities", lt.NumCommunities(), tr.NumCommunities())
	}
	for i := 0; i < tr.NumCommunities(); i++ {
		a, b := tr.Node(TreeID(i)), lt.Node(TreeID(i))
		if a.Parent != b.Parent || a.Level != b.Level || a.Size != b.Size ||
			len(a.Children) != len(b.Children) ||
			a.InternalCount != b.InternalCount || a.InternalWeight != b.InternalWeight {
			t.Fatalf("node %d differs: %+v vs %+v", i, a, b)
		}
	}
	if err := lt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveOpenConnectivityIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := labeledCommunityGraph(rng, 4, 18)
	tr, st := saveLoad(t, g, 2, 3, 512, 16)
	lt := st.Tree()
	count := 0
	tr.ConnectedPairs(func(a, b TreeID, s ConnStat) bool {
		if lt.Connectivity(a, b) != s {
			t.Fatalf("conn(%d,%d) mismatch", a, b)
		}
		count++
		return true
	})
	ltCount := 0
	lt.ConnectedPairs(func(a, b TreeID, s ConnStat) bool { ltCount++; return true })
	if count != ltCount {
		t.Fatalf("conn edge counts differ: %d vs %d", count, ltCount)
	}
}

func TestLoadLeafMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := labeledCommunityGraph(rng, 4, 16)
	tr, st := saveLoad(t, g, 2, 3, 512, 64)
	for _, leaf := range tr.Leaves() {
		sub, members, err := st.LoadLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Node(leaf).Members
		if len(members) != len(want) {
			t.Fatalf("leaf %d members %d want %d", leaf, len(members), len(want))
		}
		for i := range members {
			if members[i] != want[i] {
				t.Fatalf("leaf %d member order differs", leaf)
			}
			if sub.Label(graph.NodeID(i)) != g.Label(members[i]) {
				t.Fatalf("leaf %d label mismatch at %d", leaf, i)
			}
		}
		// Edges must match the induced subgraph of the original.
		wantSub, _ := graph.Induced(graph.ToCSR(g), g.Directed(), g.Label, want)
		if sub.NumEdges() != wantSub.NumEdges() {
			t.Fatalf("leaf %d edges %d want %d", leaf, sub.NumEdges(), wantSub.NumEdges())
		}
		ok := true
		wantSub.Edges(func(u, v graph.NodeID, w float64) bool {
			if sub.EdgeWeight(u, v) != w {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			t.Fatalf("leaf %d edge weights differ", leaf)
		}
	}
}

func TestLoadLeafErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := labeledCommunityGraph(rng, 4, 16)
	_, st := saveLoad(t, g, 2, 2, 512, 16)
	if _, _, err := st.LoadLeaf(TreeID(9999)); err == nil {
		t.Fatal("accepted invalid leaf id")
	}
	if _, _, err := st.LoadLeaf(st.Tree().Root()); err == nil {
		t.Fatal("accepted non-leaf id")
	}
}

func TestFindLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := labeledCommunityGraph(rng, 4, 16)
	tr, st := saveLoad(t, g, 2, 3, 512, 16)
	hits, err := st.FindLabel("author-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits=%d want 1", len(hits))
	}
	h := hits[0]
	if h.Node != 7 {
		t.Fatalf("hit node=%d want 7", h.Node)
	}
	if h.Leaf != tr.LeafOf(7) {
		t.Fatalf("hit leaf=%d want %d", h.Leaf, tr.LeafOf(7))
	}
	if h.Path[0] != tr.Root() || h.Path[len(h.Path)-1] != h.Leaf {
		t.Fatalf("hit path=%v", h.Path)
	}
	none, err := st.FindLabel("nobody")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatal("found nonexistent label")
	}
}

func TestSearchLabelPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := labeledCommunityGraph(rng, 4, 16)
	_, st := saveLoad(t, g, 2, 3, 512, 16)
	hits, err := st.SearchLabelPrefix("author-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// author-1, author-10..author-19: 11 hits on 64 nodes.
	if len(hits) != 11 {
		t.Fatalf("prefix hits=%d want 11", len(hits))
	}
	limited, err := st.SearchLabelPrefix("author-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 {
		t.Fatalf("limited hits=%d want 3", len(limited))
	}
}

func TestOnDemandLoadingTouchesFewPages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := labeledCommunityGraph(rng, 8, 32) // 256 nodes
	tr, st := saveLoad(t, g, 2, 4, 512, 256)
	st.ResetPoolStats()
	leaf := tr.Leaves()[0]
	if _, _, err := st.LoadLeaf(leaf); err != nil {
		t.Fatal(err)
	}
	after := st.PoolStats()
	touched := after.Misses
	total := uint64(0)
	for _, l := range tr.Leaves() {
		_ = l
		total++
	}
	// One leaf load must touch only that leaf's blob pages — far fewer
	// than the whole file.
	if touched == 0 {
		t.Fatal("no pages read")
	}
	if touched > 32 {
		t.Fatalf("leaf load touched %d pages, expected a handful", touched)
	}
	// A second load of the same leaf is served from the pool.
	st.ResetPoolStats()
	if _, _, err := st.LoadLeaf(leaf); err != nil {
		t.Fatal(err)
	}
	again := st.PoolStats()
	if again.Misses != 0 {
		t.Fatalf("re-load missed %d pages, want 0", again.Misses)
	}
	if again.Hits == 0 {
		t.Fatal("re-load did not hit the pool")
	}
}

func TestOpenFileRejectsNonTree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.gmine")
	// A valid pager file that is not a G-Tree.
	p, err := storage.Create(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := OpenFile(path, 4); err == nil {
		t.Fatal("opened a non-tree pager file")
	}
}

func TestUnlabeledGraphPersists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := communityGraph(rng, 4, 16, 0.3, 0.02)
	_, st := saveLoad(t, g, 2, 2, 512, 16)
	hits, err := st.FindLabel("anything")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatal("unlabeled tree returned label hits")
	}
}

func TestSaveRequiresMembership(t *testing.T) {
	tr := &Tree{K: 2, Levels: 1, nodes: []Node{{ID: 0, Parent: InvalidTree}}}
	if err := Save(tr, graph.New(false), filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("saved tree without membership")
	}
}

func TestRoundTripVariousPageSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := labeledCommunityGraph(rng, 4, 20)
	for _, ps := range []int{256, 512, 4096} {
		tr, st := saveLoad(t, g, 2, 3, ps, 32)
		for _, leaf := range tr.Leaves()[:2] {
			if _, _, err := st.LoadLeaf(leaf); err != nil {
				t.Fatalf("page size %d: %v", ps, err)
			}
		}
	}
}

// buildTest helper is in gtree_test.go; this builds the partition options
// indirectly so persist tests stay deterministic too.
var _ = partition.Options{}
