package gtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// gridCommunities builds k*k cliques of size s arranged in a ring, with a
// single edge between consecutive cliques — a graph whose natural
// hierarchy is obvious.
func ringOfCliques(k, s int) *graph.Graph {
	g := graph.NewWithNodes(k*s, false)
	for c := 0; c < k; c++ {
		base := graph.NodeID(c * s)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(base+graph.NodeID(i), base+graph.NodeID(j), 1)
			}
		}
	}
	for c := 0; c < k; c++ {
		g.AddEdge(graph.NodeID(c*s), graph.NodeID(((c+1)%k)*s), 1)
	}
	return g
}

func communityGraph(rng *rand.Rand, k, size int, pIn, pOut float64) *graph.Graph {
	n := k * size
	g := graph.NewWithNodes(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/size == v/size {
				p = pIn
			}
			if rng.Float64() < p {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
	}
	return g
}

func buildTest(t *testing.T, g *graph.Graph, k, levels int) *Tree {
	t.Helper()
	tr, err := Build(g, BuildOptions{K: k, Levels: levels, Partition: partition.Options{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// leafOf maps each of a built tree's n graph nodes to its leaf.
func leafOf(tr *Tree, n int) []TreeID {
	out := make([]TreeID, n)
	for _, leaf := range tr.Leaves() {
		for _, u := range tr.Node(leaf).Members {
			out[u] = leaf
		}
	}
	return out
}

func TestBuildRejectsBadOptions(t *testing.T) {
	g := ringOfCliques(2, 4)
	if _, err := Build(g, BuildOptions{K: 1, Levels: 2}); err == nil {
		t.Fatal("accepted K=1")
	}
	if _, err := Build(g, BuildOptions{K: 2, Levels: 0}); err == nil {
		t.Fatal("accepted Levels=0")
	}
}

func TestBuildSingleLevelIsLeafRoot(t *testing.T) {
	g := ringOfCliques(3, 5)
	tr := buildTest(t, g, 3, 1)
	if tr.NumCommunities() != 1 {
		t.Fatalf("communities=%d want 1", tr.NumCommunities())
	}
	root := tr.Node(tr.Root())
	if !root.IsLeaf() || root.Size != 15 {
		t.Fatalf("root leaf=%v size=%d", root.IsLeaf(), root.Size)
	}
	// All edges are internal to the root.
	if root.InternalCount != g.NumEdges() {
		t.Fatalf("internal=%d want %d", root.InternalCount, g.NumEdges())
	}
}

func TestBuildTwoLevels(t *testing.T) {
	g := ringOfCliques(4, 8) // 32 nodes
	tr := buildTest(t, g, 4, 2)
	root := tr.Node(tr.Root())
	if len(root.Children) != 4 {
		t.Fatalf("root children=%d want 4", len(root.Children))
	}
	sizes := 0
	for _, c := range root.Children {
		n := tr.Node(c)
		if !n.IsLeaf() {
			t.Fatal("level-1 node not leaf in 2-level tree")
		}
		sizes += n.Size
	}
	if sizes != 32 {
		t.Fatalf("child sizes sum %d want 32", sizes)
	}
	if tr.Levels != 2 {
		t.Fatalf("Levels=%d want 2", tr.Levels)
	}
}

func TestLeafMembershipDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := communityGraph(rng, 4, 25, 0.3, 0.02)
	tr := buildTest(t, g, 2, 4)
	seen := make([]bool, g.NumNodes())
	for _, leaf := range tr.Leaves() {
		for _, u := range tr.Node(leaf).Members {
			if seen[u] {
				t.Fatalf("graph node %d in two leaves", u)
			}
			seen[u] = true
		}
	}
	for u, s := range seen {
		if !s {
			t.Fatalf("graph node %d not covered by any leaf", u)
		}
	}
}

// Connectivity invariant: for any level, internal edges of that level's
// communities plus the cross edges among them account for every edge.
func TestConnectivityAccountsForAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := communityGraph(rng, 4, 20, 0.3, 0.03)
	tr := buildTest(t, g, 4, 2)
	level1 := tr.LevelNodes(1)
	internal := 0
	for _, id := range level1 {
		internal += tr.Node(id).InternalCount
	}
	cross := 0
	for i := 0; i < len(level1); i++ {
		for j := i + 1; j < len(level1); j++ {
			cross += tr.Connectivity(level1[i], level1[j]).Count
		}
	}
	if internal+cross != g.NumEdges() {
		t.Fatalf("internal %d + cross %d != edges %d", internal, cross, g.NumEdges())
	}
}

func TestConnectivityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := communityGraph(rng, 3, 15, 0.3, 0.05)
	tr := buildTest(t, g, 3, 2)
	level1 := tr.LevelNodes(1)
	member := make(map[TreeID]map[graph.NodeID]bool)
	for _, id := range level1 {
		set := map[graph.NodeID]bool{}
		for _, u := range tr.Node(id).Members {
			set[u] = true
		}
		member[id] = set
	}
	for i := 0; i < len(level1); i++ {
		for j := i + 1; j < len(level1); j++ {
			a, b := level1[i], level1[j]
			want := 0
			var wantW float64
			g.Edges(func(u, v graph.NodeID, w float64) bool {
				if (member[a][u] && member[b][v]) || (member[a][v] && member[b][u]) {
					want++
					wantW += w
				}
				return true
			})
			got := tr.Connectivity(a, b)
			if got.Count != want || got.Weight != wantW {
				t.Fatalf("conn(%d,%d)=%+v want count=%d weight=%g", a, b, got, want, wantW)
			}
		}
	}
}

func TestConnectivitySymmetric(t *testing.T) {
	g := ringOfCliques(4, 6)
	tr := buildTest(t, g, 4, 2)
	l := tr.LevelNodes(1)
	for i := 0; i < len(l); i++ {
		for j := 0; j < len(l); j++ {
			if i == j {
				continue
			}
			if tr.Connectivity(l[i], l[j]) != tr.Connectivity(l[j], l[i]) {
				t.Fatal("connectivity not symmetric")
			}
		}
	}
}

func TestDeepHierarchyCommunityCount(t *testing.T) {
	// 2^3 = 8 leaves from K=2, Levels=4 on a graph large enough to split.
	rng := rand.New(rand.NewSource(9))
	g := communityGraph(rng, 8, 16, 0.4, 0.02)
	tr := buildTest(t, g, 2, 4)
	st := tr.ComputeStats()
	if st.Leaves != 8 {
		t.Fatalf("leaves=%d want 8", st.Leaves)
	}
	if st.Communities != 1+2+4+8 {
		t.Fatalf("communities=%d want 15", st.Communities)
	}
	if st.Levels != 4 {
		t.Fatalf("levels=%d want 4", st.Levels)
	}
	if st.PerLevel[0] != 1 || st.PerLevel[1] != 2 || st.PerLevel[2] != 4 || st.PerLevel[3] != 8 {
		t.Fatalf("per-level=%v", st.PerLevel)
	}
	if st.AvgLeafSize != 16 {
		t.Fatalf("avg leaf size=%g want 16", st.AvgLeafSize)
	}
}

func TestMinCommunityStopsSplitting(t *testing.T) {
	g := ringOfCliques(2, 5) // 10 nodes
	tr, err := Build(g, BuildOptions{K: 2, Levels: 10, MinCommunity: 6, Partition: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		n := tr.Node(leaf)
		// A leaf either hit the size floor or its parent's split made it
		// small; nothing of size > MinCommunity may remain unsplit above
		// the level cap.
		if n.Size > 6 && n.Level < 9 {
			t.Fatalf("leaf %d size %d should have split", leaf, n.Size)
		}
	}
}

func TestPathAndSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := communityGraph(rng, 4, 16, 0.4, 0.02)
	tr := buildTest(t, g, 2, 3)
	leaf := tr.Leaves()[0]
	path := tr.Path(leaf)
	if path[0] != tr.Root() || path[len(path)-1] != leaf {
		t.Fatalf("path=%v", path)
	}
	for i := 1; i < len(path); i++ {
		if tr.Node(path[i]).Parent != path[i-1] {
			t.Fatal("path not parent-linked")
		}
	}
	sibs := tr.Siblings(leaf)
	parent := tr.Node(leaf).Parent
	if len(sibs) != len(tr.Node(parent).Children)-1 {
		t.Fatalf("siblings=%d want %d", len(sibs), len(tr.Node(parent).Children)-1)
	}
	for _, s := range sibs {
		if s == leaf {
			t.Fatal("focus listed among its own siblings")
		}
		if tr.Node(s).Parent != parent {
			t.Fatal("sibling with different parent")
		}
	}
	if tr.Siblings(tr.Root()) != nil {
		t.Fatal("root has siblings")
	}
}

func TestTomahawkSceneShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := communityGraph(rng, 9, 20, 0.35, 0.02)
	tr := buildTest(t, g, 3, 3)
	// Focus on a level-1 community.
	focus := tr.Node(tr.Root()).Children[0]
	s := tr.Tomahawk(focus, TomahawkOptions{})
	if s.Focus != focus {
		t.Fatal("scene focus wrong")
	}
	if len(s.Ancestors) != 1 || s.Ancestors[0] != tr.Root() {
		t.Fatalf("ancestors=%v", s.Ancestors)
	}
	if len(s.Siblings) != 2 {
		t.Fatalf("siblings=%d want 2", len(s.Siblings))
	}
	if len(s.Children) != len(tr.Node(focus).Children) {
		t.Fatal("children mismatch")
	}
	if len(s.Grandchildren) != 0 {
		t.Fatal("grandchildren present without option")
	}
	// Scene size bound: ancestors + 1 + (K-1) + K.
	if s.Size() > 1+1+2+3 {
		t.Fatalf("scene size %d exceeds Tomahawk bound", s.Size())
	}
	if s.Size() != len(s.Nodes()) {
		t.Fatal("Size() != len(Nodes())")
	}
}

func TestTomahawkGrandchildren(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := communityGraph(rng, 9, 20, 0.35, 0.02)
	tr := buildTest(t, g, 3, 3)
	s := tr.Tomahawk(tr.Root(), TomahawkOptions{Grandchildren: true})
	if len(s.Children) != 3 {
		t.Fatalf("children=%d want 3", len(s.Children))
	}
	want := 0
	for _, c := range s.Children {
		want += len(tr.Node(c).Children)
	}
	if len(s.Grandchildren) != want {
		t.Fatalf("grandchildren=%d want %d", len(s.Grandchildren), want)
	}
}

func TestTomahawkEdgesAreSameLevelAndPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := communityGraph(rng, 9, 18, 0.3, 0.05)
	tr := buildTest(t, g, 3, 3)
	focus := tr.Node(tr.Root()).Children[1]
	s := tr.Tomahawk(focus, TomahawkOptions{Grandchildren: true})
	for _, e := range s.Edges {
		if tr.Node(e.A).Level != tr.Node(e.B).Level {
			t.Fatalf("scene edge across levels: %d(%d) - %d(%d)",
				e.A, tr.Node(e.A).Level, e.B, tr.Node(e.B).Level)
		}
		if e.Count <= 0 {
			t.Fatal("scene edge with zero count")
		}
		if e.A >= e.B {
			t.Fatal("scene edge not normalized")
		}
	}
}

func TestTomahawkVsFullLevelScene(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := communityGraph(rng, 16, 12, 0.4, 0.03)
	tr := buildTest(t, g, 4, 3)
	// Focus deep: a level-2 node. Tomahawk shows ancestors+siblings+children;
	// the full-level scene shows all 16 level-2 communities.
	var focus TreeID
	for _, id := range tr.LevelNodes(2) {
		focus = id
		break
	}
	tom := tr.Tomahawk(focus, TomahawkOptions{})
	full := tr.FullLevelScene(focus)
	if tom.Size() >= full.Size() {
		t.Fatalf("tomahawk scene (%d) not smaller than full level scene (%d)", tom.Size(), full.Size())
	}
}

func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := communityGraph(rng, 4, 20, 0.3, 0.02)
	t1 := buildTest(t, g, 2, 3)
	t2 := buildTest(t, g, 2, 3)
	if t1.NumCommunities() != t2.NumCommunities() {
		t.Fatal("nondeterministic community count")
	}
	if !slices.Equal(leafOf(t1, g.NumNodes()), leafOf(t2, g.NumNodes())) {
		t.Fatal("nondeterministic leaf assignment")
	}
}

func TestBuildTinyGraph(t *testing.T) {
	g := graph.NewWithNodes(3, false)
	g.AddEdge(0, 1, 1)
	tr, err := Build(g, BuildOptions{K: 5, Levels: 3, Partition: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 nodes <= MinCommunity (10): root stays a leaf.
	if tr.NumCommunities() != 1 {
		t.Fatalf("communities=%d want 1", tr.NumCommunities())
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g := graph.New(false)
	tr, err := Build(g, BuildOptions{K: 2, Levels: 3, Partition: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCommunities() != 1 || tr.Node(0).Size != 0 {
		t.Fatal("empty graph tree malformed")
	}
}
