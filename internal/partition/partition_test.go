package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// twoCliques builds two size-s cliques joined by `bridges` edges — the
// canonical partitioning fixture with a known optimal bisection.
func twoCliques(s, bridges int) *graph.Graph {
	g := graph.NewWithNodes(2*s, false)
	for c := 0; c < 2; c++ {
		base := graph.NodeID(c * s)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(base+graph.NodeID(i), base+graph.NodeID(j), 1)
			}
		}
	}
	for b := 0; b < bridges; b++ {
		g.AddEdge(graph.NodeID(b%s), graph.NodeID(s+(b+1)%s), 1)
	}
	return g
}

// ringOfCliques builds k cliques of size s connected in a ring by single
// edges; the optimal k-way cut is exactly k (or k-1 for a path).
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

func randomCommunityGraph(rng *rand.Rand, k, size int, pIn, pOut float64) *graph.Graph {
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

func TestPartitionK1(t *testing.T) {
	g := twoCliques(5, 1)
	res, err := Partition(g, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 {
		t.Fatalf("cut=%g want 0 for K=1", res.Cut)
	}
	for _, p := range res.Parts {
		if p != 0 {
			t.Fatal("K=1 produced nonzero part id")
		}
	}
}

func TestPartitionRejectsBadK(t *testing.T) {
	g := twoCliques(3, 1)
	if _, err := Partition(g, Options{K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := Partition(g, Options{K: -2}); err == nil {
		t.Fatal("accepted negative K")
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	g := graph.New(false)
	res, err := Partition(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 0 || res.Cut != 0 {
		t.Fatal("empty graph mishandled")
	}
}

func TestPartitionTinyGraphFewerNodesThanK(t *testing.T) {
	g := graph.NewWithNodes(3, false)
	g.AddEdge(0, 1, 1)
	res, err := Partition(g, Options{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Parts, 5); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, p := range res.Parts {
		if seen[p] {
			t.Fatal("n<K should give singleton parts")
		}
		seen[p] = true
	}
}

func TestTwoCliquesOptimalBisection(t *testing.T) {
	g := twoCliques(20, 2)
	res, err := Partition(g, Options{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Parts, 2); err != nil {
		t.Fatal(err)
	}
	// The optimal cut is exactly the 2 bridge edges.
	if res.Cut != 2 {
		t.Fatalf("cut=%g want 2 (two cliques should split on the bridges)", res.Cut)
	}
	// Each clique must land wholly in one part.
	for i := 1; i < 20; i++ {
		if res.Parts[i] != res.Parts[0] {
			t.Fatal("clique 0 split across parts")
		}
		if res.Parts[20+i] != res.Parts[20] {
			t.Fatal("clique 1 split across parts")
		}
	}
}

func TestRingOfCliquesKWay(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		g := ringOfCliques(k, 12)
		res, err := Partition(g, Options{K: k, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(res.Parts, k); err != nil {
			t.Fatal(err)
		}
		// Optimal cut is k ring edges (k=2: both ring edges = 2).
		if res.Cut > float64(k)+2 {
			t.Fatalf("k=%d cut=%g want <= %d+slack", k, res.Cut, k)
		}
		if imb := Imbalance(res.Parts, k); imb > 1.35 {
			t.Fatalf("k=%d imbalance=%g too high", k, imb)
		}
	}
}

func TestMultilevelBeatsBaselinesOnCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomCommunityGraph(rng, 4, 40, 0.30, 0.01)
	ml, err := Partition(g, Options{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Partition(g, Options{K: 4, Seed: 5, Method: Random})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := Partition(g, Options{K: 4, Seed: 5, Method: BFSGrow})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Cut >= rd.Cut {
		t.Fatalf("multilevel cut %g not better than random %g", ml.Cut, rd.Cut)
	}
	if ml.Cut > bf.Cut {
		t.Fatalf("multilevel cut %g worse than BFS %g", ml.Cut, bf.Cut)
	}
}

func TestRefinementImprovesOrMatchesNoRefinement(t *testing.T) {
	// For K=2 the refined result can never be worse than the unrefined one
	// with the same seed: the coarsening and initial bisection are
	// identical, and every FM pass keeps only non-worsening prefixes.
	// (For K>2 recursion can interact non-monotonically, so only the
	// bisection guarantee is testable per-instance.)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomCommunityGraph(rng, 2, 35, 0.25, 0.02)
		with, err := Partition(g, Options{K: 2, Seed: seed, FMPasses: 4})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Partition(g, Options{K: 2, Seed: seed, FMPasses: -1})
		if err != nil {
			t.Fatal(err)
		}
		if with.Cut > without.Cut {
			t.Fatalf("seed %d: refined cut %g worse than unrefined %g", seed, with.Cut, without.Cut)
		}
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	g := ringOfCliques(4, 10)
	a, err := Partition(g, Options{K: 4, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{K: 4, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatal("same seed produced different partitionings")
		}
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	g := graph.NewWithNodes(40, false)
	// Two components of 20 nodes each (paths), no edges between them.
	for i := 0; i < 19; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		g.AddEdge(graph.NodeID(20+i), graph.NodeID(20+i+1), 1)
	}
	res, err := Partition(g, Options{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Parts, 2); err != nil {
		t.Fatal(err)
	}
	if res.Cut > 1 {
		t.Fatalf("cut=%g for disconnected graph, want <= 1", res.Cut)
	}
}

func TestPartitionStarGraph(t *testing.T) {
	// Star graphs stall heavy-edge matching (only one matchable pair per
	// round); ensure coarsening's stall detection keeps this terminating.
	g := graph.NewWithNodes(101, false)
	for i := 1; i <= 100; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	res, err := Partition(g, Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionWeightedEdgesRespected(t *testing.T) {
	// A 4-cycle with two heavy opposite edges: the optimal bisection cuts
	// the two light edges, keeping heavy pairs together.
	g := graph.NewWithNodes(4, false)
	g.AddEdge(0, 1, 100)
	g.AddEdge(2, 3, 100)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 0, 1)
	res, err := Partition(g, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts[0] != res.Parts[1] || res.Parts[2] != res.Parts[3] {
		t.Fatalf("heavy pairs split: %v", res.Parts)
	}
	if res.Cut != 2 {
		t.Fatalf("cut=%g want 2", res.Cut)
	}
}

func TestImbalanceMetric(t *testing.T) {
	parts := []int32{0, 0, 0, 1} // 3 vs 1, ideal 2: imbalance = 1.5
	if got := Imbalance(parts, 2); got != 1.5 {
		t.Fatalf("Imbalance=%g want 1.5", got)
	}
	if got := Imbalance(nil, 2); got != 0 {
		t.Fatalf("Imbalance(empty)=%g want 0", got)
	}
}

func TestEdgeCutAndCount(t *testing.T) {
	g := graph.NewWithNodes(4, false)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 2)
	parts := []int32{0, 0, 1, 1}
	if cut := EdgeCut(g, parts); cut != 3 {
		t.Fatalf("EdgeCut=%g want 3", cut)
	}
	if c := CutEdgeCount(g, parts); c != 1 {
		t.Fatalf("CutEdgeCount=%d want 1", c)
	}
}

func TestValidateCatchesBadParts(t *testing.T) {
	if err := Validate([]int32{0, 1, 2}, 2); err == nil {
		t.Fatal("accepted part id >= k")
	}
	if err := Validate([]int32{0, -1}, 2); err == nil {
		t.Fatal("accepted negative part id")
	}
}

func TestHeavyEdgeMatchIsMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomCommunityGraph(rng, 2, 30, 0.2, 0.05)
	c := graph.ToCSR(g)
	match := heavyEdgeMatch(c, rng)
	for u := range match {
		m := match[u]
		if m < 0 || int(m) >= c.N() {
			t.Fatalf("match[%d]=%d out of range", u, m)
		}
		if match[m] != int32(u) {
			t.Fatalf("matching not symmetric: match[%d]=%d but match[%d]=%d", u, m, m, match[m])
		}
	}
}

func TestContractPreservesWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := graph.NewWithNodes(n, false)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(4)))
			}
		}
		g.Dedup()
		c := graph.ToCSR(g)
		match := heavyEdgeMatch(c, rng)
		coarse, cmap := contract(c, match)
		// Node weight conserved.
		if coarse.TotalNodeWeight() != c.TotalNodeWeight() {
			return false
		}
		// Cross-pair edge weight conserved: total fine weight minus weight
		// internal to matched pairs equals total coarse weight.
		var fineTotal, internal float64
		for u := 0; u < c.N(); u++ {
			nbrs, ws := c.Neighbors(graph.NodeID(u))
			for i, v := range nbrs {
				fineTotal += ws[i]
				if cmap[v] == cmap[u] && int32(v) != int32(u) {
					internal += ws[i]
				}
			}
		}
		var coarseTotal float64
		for i := range coarse.EdgeW {
			coarseTotal += coarse.EdgeW[i]
		}
		diff := fineTotal - internal - coarseTotal
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPartitionAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		g := graph.NewWithNodes(n, false)
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
		g.Dedup()
		k := 2 + rng.Intn(5)
		for _, m := range []Method{Multilevel, BFSGrow, Random} {
			res, err := Partition(g, Options{K: k, Seed: seed, Method: m})
			if err != nil {
				return false
			}
			if Validate(res.Parts, k) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMultilevelBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomCommunityGraph(rng, 3, 20+rng.Intn(20), 0.2, 0.02)
		k := 2 + rng.Intn(4)
		res, err := Partition(g, Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		// Allow generous slack: recursive bisection compounds imbalance.
		return Imbalance(res.Parts, k) <= 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCSRPartitionsEdges(t *testing.T) {
	g := twoCliques(8, 3)
	c := graph.ToCSR(g)
	side := make([]int8, c.N())
	for i := 8; i < 16; i++ {
		side[i] = 1
	}
	c0, o0, c1, o1 := splitCSR(c, side, identity(c.N()))
	if c0.N() != 8 || c1.N() != 8 {
		t.Fatalf("sizes %d %d want 8 8", c0.N(), c1.N())
	}
	// Each side keeps its clique's 28 undirected edges = 56 half-edges.
	if c0.HalfEdges() != 56 || c1.HalfEdges() != 56 {
		t.Fatalf("half edges %d %d want 56 56", c0.HalfEdges(), c1.HalfEdges())
	}
	for i, o := range o0 {
		if int(o) != i {
			t.Fatalf("o0[%d]=%d", i, o)
		}
	}
	for i, o := range o1 {
		if int(o) != i+8 {
			t.Fatalf("o1[%d]=%d", i, o)
		}
	}
}

func TestGrowBisectionRespectsTargetFraction(t *testing.T) {
	g := ringOfCliques(4, 10)
	c := graph.ToCSR(g)
	rng := rand.New(rand.NewSource(1))
	side := growBisection(c, 0.25, rng)
	var w0 int64
	for u, s := range side {
		if s == 0 {
			w0 += int64(c.NodeW[u])
		}
	}
	// target = 10 of 40 nodes; growing overshoots by at most one node's
	// weight, and all weights are 1 here.
	if w0 < 10 || w0 > 14 {
		t.Fatalf("side0 weight=%d want ~10", w0)
	}
}

// TestImbalanceCompoundsPerBisection pins what the imbalance constant
// bounds: each bisection may overshoot its target by that factor, so after
// the ceil(log2 K) bisections above a part, the heaviest part stays within
// imbalance^ceil(log2 K) of the ideal weight — not within imbalance itself.
func TestImbalanceCompoundsPerBisection(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomCommunityGraph(rand.New(rand.NewSource(seed)), 6, 100, 0.08, 0.004)
		for k := 2; k <= 8; k++ {
			res, err := Partition(g, Options{K: k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			depth := math.Ceil(math.Log2(float64(k)))
			bound := math.Pow(imbalance, depth)
			got := Imbalance(res.Parts, k)
			if got > bound+1e-9 {
				t.Errorf("seed %d k %d: imbalance %.3f exceeds %.2f^%g = %.3f", seed, k, got, imbalance, depth, bound)
			}
		}
	}
}

// TestPartitionDirectedIsSymmetrized: a directed graph is partitioned as
// its undirected form, so two one-way cliques joined by two arcs split
// along those arcs.
func TestPartitionDirectedIsSymmetrized(t *testing.T) {
	const s = 10
	g := graph.NewWithNodes(2*s, true)
	for c := 0; c < 2; c++ {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(graph.NodeID(c*s+i), graph.NodeID(c*s+j), 1)
			}
		}
	}
	g.AddEdge(0, s, 1)
	g.AddEdge(s+1, 1, 1)
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Partition(g, Options{K: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut != 2 {
			t.Fatalf("seed %d: cut = %g, want the 2 bridge arcs", seed, res.Cut)
		}
	}
}
