package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(false)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestAddNodeAndLabel(t *testing.T) {
	g := New(false)
	a := g.AddNode("alice")
	b := g.AddNode("")
	c := g.AddNode("carol")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("ids not dense: %d %d %d", a, b, c)
	}
	if g.Label(a) != "alice" || g.Label(b) != "" || g.Label(c) != "carol" {
		t.Fatalf("labels wrong: %q %q %q", g.Label(a), g.Label(b), g.Label(c))
	}
	if !g.Labeled() {
		t.Fatal("graph with labels not Labeled")
	}
	if got := g.FindLabel("carol"); got != c {
		t.Fatalf("FindLabel(carol)=%d want %d", got, c)
	}
	if got := g.FindLabel("nobody"); got != -1 {
		t.Fatalf("FindLabel(nobody)=%d want -1", got)
	}
}

func TestLabelAfterAddNodes(t *testing.T) {
	g := New(false)
	g.AddNodes(3)
	g.SetLabel(2, "late")
	if g.Label(0) != "" || g.Label(2) != "late" {
		t.Fatalf("labels after AddNodes wrong: %q %q", g.Label(0), g.Label(2))
	}
	g.AddNodes(2)
	if g.Label(4) != "" {
		t.Fatalf("new node has stale label %q", g.Label(4))
	}
	g.SetLabel(4, "x")
	if g.Label(4) != "x" {
		t.Fatal("SetLabel on appended node failed")
	}
}

func TestUndirectedEdgeSymmetry(t *testing.T) {
	g := NewWithNodes(4, false)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge not symmetric")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges=%d want 2", g.NumEdges())
	}
	if w := g.EdgeWeight(1, 0); w != 2.5 {
		t.Fatalf("EdgeWeight(1,0)=%g want 2.5", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDirectedEdgeAsymmetry(t *testing.T) {
	g := NewWithNodes(3, true)
	g.AddEdge(0, 1, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("missing arc 0->1")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("unexpected reverse arc 1->0")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges())
	}
}

func TestSelfLoop(t *testing.T) {
	g := NewWithNodes(2, false)
	g.AddEdge(0, 0, 3)
	if g.Degree(0) != 1 {
		t.Fatalf("self-loop stored %d times, want 1", g.Degree(0))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges())
	}
	g.Dedup()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges after Dedup=%d want 1", g.NumEdges())
	}
}

func TestDedupMergesParallelEdges(t *testing.T) {
	g := NewWithNodes(3, false)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(0, 2, 1)
	g.Dedup()
	if g.Degree(0) != 2 {
		t.Fatalf("degree(0)=%d want 2", g.Degree(0))
	}
	if w := g.EdgeWeight(0, 1); w != 3 {
		t.Fatalf("merged weight=%g want 3", w)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges=%d want 2", g.NumEdges())
	}
	// Idempotent.
	g.Dedup()
	if g.NumEdges() != 2 || g.EdgeWeight(0, 1) != 3 {
		t.Fatal("Dedup not idempotent")
	}
}

func TestDedupDirected(t *testing.T) {
	g := NewWithNodes(3, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.Dedup()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges=%d want 2", g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 2 {
		t.Fatalf("weight 0->1 = %g want 2", g.EdgeWeight(0, 1))
	}
}

func TestEdgesIteratesLogicalEdgesOnce(t *testing.T) {
	g := NewWithNodes(4, false)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 3, 1)
	seen := map[[2]NodeID]int{}
	g.Edges(func(u, v NodeID, w float64) bool {
		if u > v {
			t.Fatalf("edge reported with u>v: %d %d", u, v)
		}
		seen[[2]NodeID{u, v}]++
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("saw %d distinct edges, want 4", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v seen %d times", k, c)
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := NewWithNodes(5, false)
	for i := NodeID(0); i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	count := 0
	g.Edges(func(u, v NodeID, w float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop iterated %d edges, want 2", count)
	}
}

func TestWeightedDegreeAndTotalWeight(t *testing.T) {
	g := NewWithNodes(3, false)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	if d := g.WeightedDegree(0); d != 5 {
		t.Fatalf("WeightedDegree(0)=%g want 5", d)
	}
	if tw := g.TotalWeight(); tw != 5 {
		t.Fatalf("TotalWeight=%g want 5", tw)
	}
}

func TestValidateCatchesNegativeWeight(t *testing.T) {
	g := NewWithNodes(2, false)
	g.AddEdge(0, 1, -1)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted negative weight")
	}
}

func TestCheckNode(t *testing.T) {
	g := NewWithNodes(3, false)
	if err := g.CheckNode(2); err != nil {
		t.Fatalf("CheckNode(2): %v", err)
	}
	if err := g.CheckNode(3); err == nil {
		t.Fatal("CheckNode(3) accepted out-of-range id")
	}
	if err := g.CheckNode(-1); err == nil {
		t.Fatal("CheckNode(-1) accepted negative id")
	}
}

// randomGraph builds a random undirected simple graph for property tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := NewWithNodes(n, false)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		g.AddEdge(u, v, 1+rng.Float64())
	}
	g.Dedup()
	return g
}

func TestPropertyDedupPreservesTotalWeight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := NewWithNodes(n, false)
		var want float64
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			w := float64(1 + rng.Intn(5))
			g.AddEdge(u, v, w)
			want += w
		}
		g.Dedup()
		got := g.TotalWeight()
		return got > want-1e-9 && got < want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUndirectedHalfEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), 40)
		half, loops := 0, 0
		for u := 0; u < g.NumNodes(); u++ {
			for _, e := range g.Neighbors(NodeID(u)) {
				if e.To == NodeID(u) {
					loops++
				} else {
					half++
				}
			}
		}
		return g.NumEdges() == half/2+loops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyValidateRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(50), 80)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonFiniteWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := NewWithNodes(2, true)
		g.AddEdge(0, 1, w)
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted weight %g", w)
		}
	}
}
