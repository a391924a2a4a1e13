package extract

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

func pathGraph(n int) *graph.Graph {
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

func randomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.NewWithNodes(n, false)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 1)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	return g
}

func TestRWRMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		g := randomConnected(rng, 6+rng.Intn(5), 6)
		c := graph.ToCSR(g)
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		got, err := RWRSet(c, []graph.NodeID{src}, RWROptions{Restart: 0.2, Epsilon: 1e-14, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		want := graphtest.NewOracle(g).RWR(0.2, src)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d node %d: power %g dense %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRWRSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 5+rng.Intn(30), 20)
		c := graph.ToCSR(g)
		r, err := RWRSet(c, []graph.NodeID{0}, RWROptions{})
		if err != nil {
			return false
		}
		var sum float64
		for _, x := range r {
			sum += x
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRWRSourceHasHighScore(t *testing.T) {
	g := pathGraph(9)
	c := graph.ToCSR(g)
	r, err := RWRSet(c, []graph.NodeID{4}, RWROptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if i != 4 && r[i] >= r[4] {
			t.Fatalf("node %d score %g >= source score %g", i, r[i], r[4])
		}
	}
	// Scores decay with distance on a symmetric path.
	if !(r[3] > r[2] && r[2] > r[1] && r[1] > r[0]) {
		t.Fatalf("scores not monotone with distance: %v", r)
	}
}

func TestRWRHighRestartConcentratesAtSource(t *testing.T) {
	g := pathGraph(5)
	c := graph.ToCSR(g)
	low, _ := RWRSet(c, []graph.NodeID{2}, RWROptions{Restart: 0.1})
	high, _ := RWRSet(c, []graph.NodeID{2}, RWROptions{Restart: 0.9})
	if high[2] <= low[2] {
		t.Fatalf("restart 0.9 source mass %g <= restart 0.1 mass %g", high[2], low[2])
	}
}

func TestRWRIsolatedSource(t *testing.T) {
	g := graph.NewWithNodes(3, false)
	g.AddEdge(1, 2, 1)
	c := graph.ToCSR(g)
	r, err := RWRSet(c, []graph.NodeID{0}, RWROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-1) > 1e-9 || r[1] != 0 || r[2] != 0 {
		t.Fatalf("isolated source distribution %v", r)
	}
}

func TestRWRRejectsBadSources(t *testing.T) {
	g := pathGraph(3)
	c := graph.ToCSR(g)
	if _, err := RWRSet(c, []graph.NodeID{99}, RWROptions{}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if _, err := RWRSet(c, nil, RWROptions{}); err == nil {
		t.Fatal("accepted empty source set")
	}
}

func TestGoodnessAND(t *testing.T) {
	rwr := [][]float64{{0.5, 0.2, 0.0}, {0.4, 0.5, 0.3}}
	g := Goodness(rwr, CombineAND, 0)
	want := []float64{0.2, 0.1, 0.0}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("AND goodness %v want %v", g, want)
		}
	}
}

func TestGoodnessOR(t *testing.T) {
	rwr := [][]float64{{0.5, 0.0}, {0.5, 0.0}}
	g := Goodness(rwr, CombineOR, 0)
	if math.Abs(g[0]-0.75) > 1e-12 || g[1] != 0 {
		t.Fatalf("OR goodness %v", g)
	}
}

func TestGoodnessKSoftAND(t *testing.T) {
	rwr := [][]float64{{0.5}, {0.1}, {0.4}}
	// k=2: product of two largest = 0.5*0.4.
	g := Goodness(rwr, CombineKSoftAND, 2)
	if math.Abs(g[0]-0.2) > 1e-12 {
		t.Fatalf("ksoftand=%g want 0.2", g[0])
	}
	// k clamps to m.
	g = Goodness(rwr, CombineKSoftAND, 99)
	if math.Abs(g[0]-0.02) > 1e-12 {
		t.Fatalf("clamped ksoftand=%g want 0.02", g[0])
	}
}

func TestGoodnessEmpty(t *testing.T) {
	if Goodness(nil, CombineAND, 0) != nil {
		t.Fatal("nil input should give nil")
	}
}

func TestConnectionSubgraphBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 200, 400)
	sources := []graph.NodeID{3, 120, 77}
	res, err := ConnectionSubgraph(g, sources, Options{Budget: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumNodes() > 30 {
		t.Fatalf("budget exceeded: %d nodes", res.Subgraph.NumNodes())
	}
	if res.Subgraph.NumNodes() < len(sources) {
		t.Fatal("output smaller than source set")
	}
	// All sources present.
	found := map[graph.NodeID]bool{}
	for _, li := range res.Sources {
		found[res.Nodes[li]] = true
	}
	for _, s := range sources {
		if !found[s] {
			t.Fatalf("source %d missing from output", s)
		}
	}
	// Output connected (the underlying graph is connected).
	if wc := graphtest.NewOracle(res.Subgraph).Structure().WeakComponents; wc != 1 {
		t.Fatalf("output has %d components, want 1", wc)
	}
	if res.TotalGoodness <= 0 {
		t.Fatal("total goodness should be positive")
	}
	if res.Iterations < 1 {
		t.Fatal("no extraction iterations recorded")
	}
}

func TestConnectionSubgraphPathPicksBridge(t *testing.T) {
	// Two hubs joined by a single bridge node: the bridge must be chosen.
	g := graph.NewWithNodes(23, false)
	// hub A = 0 with leaves 1..9; hub B = 10 with leaves 11..19
	for i := 1; i <= 9; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
		g.AddEdge(10, graph.NodeID(10+i), 1)
	}
	// bridge: 0 - 20 - 21 - 22 - 10 (longer than any alternative)
	g.AddEdge(0, 20, 1)
	g.AddEdge(20, 21, 1)
	g.AddEdge(21, 22, 1)
	g.AddEdge(22, 10, 1)
	res, err := ConnectionSubgraph(g, []graph.NodeID{0, 10}, Options{Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := map[graph.NodeID]bool{}
	for _, u := range res.Nodes {
		got[u] = true
	}
	for _, want := range []graph.NodeID{0, 10, 20, 21, 22} {
		if !got[want] {
			t.Fatalf("bridge path node %d missing from %v", want, res.Nodes)
		}
	}
}

func TestConnectionSubgraphErrors(t *testing.T) {
	g := pathGraph(10)
	if _, err := ConnectionSubgraph(g, nil, Options{}); err == nil {
		t.Fatal("accepted empty sources")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{1, 1}, Options{}); err == nil {
		t.Fatal("accepted duplicate sources")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{55}, Options{}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 1, 2}, Options{Budget: 2}); err == nil {
		t.Fatal("accepted budget below source count")
	}
}

func TestConnectionSubgraphDisconnectedSources(t *testing.T) {
	g := graph.NewWithNodes(10, false)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for i := 5; i < 9; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	res, err := ConnectionSubgraph(g, []graph.NodeID{0, 7}, Options{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Cannot connect; must still include both sources and terminate.
	found := 0
	for _, u := range res.Nodes {
		if u == 0 || u == 7 {
			found++
		}
	}
	if found != 2 {
		t.Fatal("sources missing for disconnected query")
	}
}

func TestConnectionSubgraphSmallerBudgetSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 150, 300)
	sources := []graph.NodeID{5, 100}
	small, err := ConnectionSubgraph(g, sources, Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	large, err := ConnectionSubgraph(g, sources, Options{Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	if small.Subgraph.NumNodes() > large.Subgraph.NumNodes() {
		t.Fatal("smaller budget produced larger output")
	}
	if large.TotalGoodness < small.TotalGoodness-1e-12 {
		t.Fatal("larger budget captured less goodness")
	}
}

func TestKeyPathOnPathGraph(t *testing.T) {
	g := pathGraph(6)
	c := graph.ToCSR(g)
	logGood := make([]float64, 6)
	for i := range logGood {
		logGood[i] = math.Log(0.5)
	}
	p := keyPath(c, 0, 5, logGood, 10)
	if len(p) != 6 {
		t.Fatalf("path %v want 0..5", p)
	}
	for i, u := range p {
		if u != graph.NodeID(i) {
			t.Fatalf("path %v not monotone", p)
		}
	}
	// Unreachable within limit.
	if p := keyPath(c, 0, 5, logGood, 3); p != nil {
		t.Fatalf("keyPath returned %v beyond maxLen", p)
	}
	// Trivial.
	if p := keyPath(c, 2, 2, logGood, 5); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path %v", p)
	}
}

func TestKeyPathPrefersHighGoodness(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3; node 1 has much higher goodness.
	g := graph.NewWithNodes(4, false)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	c := graph.ToCSR(g)
	logGood := []float64{math.Log(0.9), math.Log(0.8), math.Log(0.01), math.Log(0.9)}
	p := keyPath(c, 0, 3, logGood, 4)
	if len(p) != 3 || p[1] != 1 {
		t.Fatalf("path %v should route through node 1", p)
	}
}

func TestTopGoodness(t *testing.T) {
	good := []float64{0.1, 0.9, 0.5, 0.9}
	top := TopGoodness(good, 2)
	if top[0] != 1 || top[1] != 3 {
		t.Fatalf("top %v", top)
	}
}

func TestPairwiseConnectionBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 120, 240)
	res, err := pairwiseNodes(g, 3, 99, PairwiseOptions{Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) > 12 {
		t.Fatalf("budget exceeded: %d", len(res.Nodes))
	}
	if res.Nodes[0] != 3 || res.Nodes[1] != 99 {
		t.Fatalf("endpoints not first: %v", res.Nodes[:2])
	}
	if res.DeliveredCurrent <= 0 {
		t.Fatal("no delivered current on a connected graph")
	}
}

func TestPairwiseVoltagesBoundedAndOriented(t *testing.T) {
	g := pathGraph(5)
	v := solveVoltages(g, 0, 4, PairwiseOptions{}.withDefaults())
	if v[0] != 1 || v[4] != 0 {
		t.Fatalf("boundary voltages %v", v)
	}
	for i := 0; i < 4; i++ {
		if v[i] < v[i+1] {
			t.Fatalf("voltage not decreasing along path: %v", v)
		}
	}
	for _, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("voltage out of [0,1]: %v", v)
		}
	}
}

func TestPairwiseErrors(t *testing.T) {
	g := pathGraph(4)
	if _, err := pairwiseNodes(g, 1, 1, PairwiseOptions{}); err == nil {
		t.Fatal("accepted s == t")
	}
	if _, err := pairwiseNodes(g, 0, 77, PairwiseOptions{}); err == nil {
		t.Fatal("accepted bad node")
	}
}

func TestMultiSourceViaPairwiseRunsAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnected(rng, 100, 200)
	sources := []graph.NodeID{1, 50, 80}
	res, runs, err := MultiSourceViaPairwise(g, sources, PairwiseOptions{Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("runs=%d want 3 (m(m-1)/2)", runs)
	}
	if res.Subgraph.NumNodes() > 20 {
		t.Fatalf("budget exceeded: %d", res.Subgraph.NumNodes())
	}
	got := map[graph.NodeID]bool{}
	for _, u := range res.Nodes {
		got[u] = true
	}
	for _, s := range sources {
		if !got[s] {
			t.Fatalf("source %d missing", s)
		}
	}
	if _, _, err := MultiSourceViaPairwise(g, sources[:1], PairwiseOptions{}); err == nil {
		t.Fatal("accepted single source")
	}
}

func TestMultiSourceBeatsPairwiseOnGoodness(t *testing.T) {
	// E9's qualitative claim: for the same budget, the multi-source
	// extractor captures at least as much meeting probability as the
	// pairwise union workflow.
	rng := rand.New(rand.NewSource(17))
	g := randomConnected(rng, 300, 900)
	sources := []graph.NodeID{10, 150, 290}
	budget := 25

	ceps, err := ConnectionSubgraph(g, sources, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := MultiSourceViaPairwise(g, sources, PairwiseOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	c := graph.ToCSR(g)
	rwr, err := RWRMulti(c, sources, RWROptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := Goodness(rwr, CombineAND, 0)
	sum := func(nodes []graph.NodeID) float64 {
		var s float64
		for _, u := range nodes {
			s += good[u]
		}
		return s
	}
	if sum(ceps.Nodes) < sum(base.Nodes) {
		t.Fatalf("multi-source goodness %g below pairwise-union %g", sum(ceps.Nodes), sum(base.Nodes))
	}
}
