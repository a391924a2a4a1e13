package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func path(n int) *graph.Graph {
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

func star(leaves int) *graph.Graph {
	g := graph.NewWithNodes(leaves+1, false)
	for i := 1; i <= leaves; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	return g
}

func TestDegreeDistributionStar(t *testing.T) {
	st := ReportAdj(graph.ToCSR(star(6)), false).Degree
	if st.Max != 6 || st.Min != 1 {
		t.Fatalf("min/max %d/%d want 1/6", st.Min, st.Max)
	}
	if st.Histogram[1] != 6 || st.Histogram[6] != 1 {
		t.Fatalf("histogram %v", st.Histogram)
	}
	wantMean := 12.0 / 7.0
	if math.Abs(st.Mean-wantMean) > 1e-12 {
		t.Fatalf("mean %g want %g", st.Mean, wantMean)
	}
}

func TestDegreeDistributionEmpty(t *testing.T) {
	st := ReportAdj(graph.ToCSR(graph.New(false)), false).Degree
	if len(st.Histogram) != 0 {
		t.Fatal("empty graph has histogram entries")
	}
	if !math.IsNaN(st.PowerLawExponent) {
		t.Fatal("empty graph should have NaN exponent")
	}
}

func TestPowerLawExponentOnSyntheticTail(t *testing.T) {
	// Build a graph whose degree histogram follows count ~ d^-2 exactly:
	// the regression should recover an exponent near 2.
	hist := map[int]int{}
	for d := 1; d <= 32; d *= 2 {
		hist[d] = 4096 / (d * d)
	}
	got := fitPowerLaw(hist)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("exponent %g want 2", got)
	}
}

func TestWeakComponentsPathPlusIsolated(t *testing.T) {
	g := path(5)
	g.AddNodes(3) // isolated
	adj := graph.ToCSR(g)
	rep := ReportAdj(adj, false)
	if rep.WeakComponents != 4 {
		t.Fatalf("components=%d want 4", rep.WeakComponents)
	}
	if lc := LargestComponent(adj); !reflect.DeepEqual(lc, []graph.NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("largest component %v, want the whole path: split into several components", lc)
	}
	if rep.LargestComponent != 5 {
		t.Fatalf("largest component size %d, want the 5-node path", rep.LargestComponent)
	}
}

func TestLargestComponent(t *testing.T) {
	g := path(5)
	g.AddNodes(2)
	g.AddEdge(5, 6, 1)
	lc := LargestComponent(graph.ToCSR(g))
	if len(lc) != 5 {
		t.Fatalf("largest=%d want 5", len(lc))
	}
}

func TestStrongComponentsDirectedCycleAndTail(t *testing.T) {
	// 0->1->2->0 cycle plus 2->3 tail: SCCs {0,1,2}, {3}.
	g := graph.NewWithNodes(4, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	labels, count := StrongComponents(graph.ToCSR(g))
	if count != 2 {
		t.Fatalf("scc count=%d want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("cycle not one SCC")
	}
	if labels[3] == labels[0] {
		t.Fatal("tail merged into cycle SCC")
	}
}

func TestStrongComponentsDAG(t *testing.T) {
	g := graph.NewWithNodes(4, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 3, 1)
	_, count := StrongComponents(graph.ToCSR(g))
	if count != 4 {
		t.Fatalf("DAG scc count=%d want 4", count)
	}
}

func TestStrongComponentsUndirectedEqualsWeak(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := graph.NewWithNodes(n, false)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
		g.Dedup()
		adj := graph.ToCSR(g)
		_, sc := StrongComponents(adj)
		return ReportAdj(adj, false).WeakComponents == sc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStrongComponentsDeepPathNoOverflow(t *testing.T) {
	// 50k-node directed path: recursion-free Tarjan must handle it.
	n := 50000
	g := graph.NewWithNodes(n, true)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	_, count := StrongComponents(graph.ToCSR(g))
	if count != n {
		t.Fatalf("scc count=%d want %d", count, n)
	}
}

// TestHopPlotExactPath checks exact hop plots against hand counts: the
// whole plot of path(4), and the diameter (MaxHops) and reachable ordered
// pairs of a longer path, a star, nodes without edges and a path beside
// an unreachable node.
func TestHopPlotExactPath(t *testing.T) {
	g := path(4) // pairs by distance: 0:4, 1:6, 2:4, 3:2 (ordered)
	hp := ComputeHopPlot(graph.ToCSR(g), 0, newRand(1))
	want := []float64{4, 10, 14, 16}
	if len(hp.Counts) != len(want) {
		t.Fatalf("counts %v want %v", hp.Counts, want)
	}
	for i := range want {
		if math.Abs(hp.Counts[i]-want[i]) > 1e-9 {
			t.Fatalf("counts %v want %v", hp.Counts, want)
		}
	}
	if hp.MaxHops != 3 {
		t.Fatalf("MaxHops=%d want 3", hp.MaxHops)
	}
	// 90% of 16 = 14.4 -> first h with >= 14.4 is 3.
	if hp.EffectiveDiameter != 3 {
		t.Fatalf("effective diameter=%d want 3", hp.EffectiveDiameter)
	}
	beside := path(5)
	beside.AddNodes(1)
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		maxHops int
		pairs   float64
	}{
		{"path(6)", path(6), 5, 36},
		{"star(7)", star(7), 2, 64},
		{"three isolated nodes", graph.NewWithNodes(3, false), 0, 3},
		{"path(5) and an isolated node", beside, 4, 26},
	} {
		hp := ComputeHopPlot(graph.ToCSR(c.g), 0, nil)
		if hp.MaxHops != c.maxHops || hp.Counts[len(hp.Counts)-1] != c.pairs {
			t.Fatalf("%s: MaxHops %d over %v pairs, want %d over %v", c.name, hp.MaxHops, hp.Counts[len(hp.Counts)-1], c.maxHops, c.pairs)
		}
	}
}

func TestHopPlotSampledApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	g := graph.NewWithNodes(n, false)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	adj := graph.ToCSR(g)
	exact := ComputeHopPlot(adj, 0, newRand(1))
	sampled := ComputeHopPlot(adj, 50, newRand(2))
	if sampled.Samples != 50 {
		t.Fatalf("samples=%d", sampled.Samples)
	}
	// The sampled plateau should be within 25% of the exact one.
	pe := exact.Counts[len(exact.Counts)-1]
	ps := sampled.Counts[len(sampled.Counts)-1]
	if ps < 0.75*pe || ps > 1.25*pe {
		t.Fatalf("sampled plateau %g vs exact %g", ps, pe)
	}
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// A cycle is 2-regular: PageRank must be uniform.
	n := 10
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
	}
	pr := PageRankAdj(graph.ToCSR(g), PageRankOptions{})
	for i, r := range pr {
		if math.Abs(r-0.1) > 1e-6 {
			t.Fatalf("pr[%d]=%g want 0.1", i, r)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.NewWithNodes(n, rng.Intn(2) == 0)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(3)))
			}
		}
		g.Dedup()
		c := graph.ToCSR(g)
		pr := PageRankAdj(c, PageRankOptions{})
		// Again on the same, now warm CSR: its cached weighted-degree
		// table must not drift the result by a bit.
		again := PageRankAdj(c, PageRankOptions{})
		var sum float64
		for i, r := range pr {
			sum += r
			if math.Float64bits(r) != math.Float64bits(again[i]) {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankHubOutranksLeaves(t *testing.T) {
	pr := PageRankAdj(graph.ToCSR(star(8)), PageRankOptions{})
	for i := 1; i <= 8; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub pr %g not above leaf pr %g", pr[0], pr[i])
		}
	}
	top := TopKByRank(pr, 1)
	if top[0] != 0 {
		t.Fatal("TopKByRank did not pick the hub")
	}
}

func TestPageRankDanglingNodes(t *testing.T) {
	// Directed: 0->1, 2 isolated. Ranks must still sum to 1.
	g := graph.NewWithNodes(3, true)
	g.AddEdge(0, 1, 1)
	pr := PageRankAdj(graph.ToCSR(g), PageRankOptions{})
	var sum float64
	for _, r := range pr {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("sum=%g want 1", sum)
	}
	if pr[1] <= pr[0] {
		t.Fatal("sink should outrank source")
	}
}

func TestPageRankCSREmpty(t *testing.T) {
	if PageRankAdj(graph.ToCSR(graph.New(false)), PageRankOptions{}) != nil {
		t.Fatal("empty graph should give nil")
	}
}

func TestReportOnCommunity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 120
	g := graph.NewWithNodes(n, false)
	for i := 0; i < 5*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	r := Report(g, 0, 1)
	if r.Nodes != n || r.Edges != g.NumEdges() {
		t.Fatal("report node/edge counts wrong")
	}
	if r.WeakComponents < 1 || r.StrongComponents < r.WeakComponents {
		t.Fatalf("components: weak=%d strong=%d", r.WeakComponents, r.StrongComponents)
	}
	if len(r.TopRanked) != 10 {
		t.Fatalf("top ranked %d want 10", len(r.TopRanked))
	}
	if r.EffectiveDiameter < 1 {
		t.Fatal("effective diameter should be >= 1 on a connected-ish graph")
	}
}
