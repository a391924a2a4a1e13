package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestToCSRStructure(t *testing.T) {
	g := NewWithNodes(3, false)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	c := ToCSR(g)
	if c.N() != 3 {
		t.Fatalf("N=%d want 3", c.N())
	}
	if c.HalfEdges() != 4 {
		t.Fatalf("half edges=%d want 4", c.HalfEdges())
	}
	nbr, w := c.Neighbors(1)
	if len(nbr) != 2 {
		t.Fatalf("deg(1)=%d want 2", len(nbr))
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum != 5 {
		t.Fatalf("weighted degree(1)=%g want 5", sum)
	}
	if c.Degree(0) != 1 || c.Degree(2) != 1 {
		t.Fatalf("degrees: %d %d want 1 1", c.Degree(0), c.Degree(2))
	}
}

// TestCSRCursor: the CSR's row cursor hands out the CSR's own rows —
// same backing memory as Neighbors, capacities clamped so a stray append
// cannot scribble over the next row — and opening, reading and closing one
// allocates nothing. The rows themselves are checked by the backend table
// (gtree TestBackends, row "csr").
func TestCSRCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := ToCSR(randomGraph(rng, 30, 90))
	var adj Adjacency = c
	cur := adj.Cursor()
	for u := range NodeID(c.N()) {
		wantN, wantW := c.Neighbors(u)
		gotN, gotW := cur.Neighbors(u)
		ids := cur.NeighborIDs(u)
		if len(wantN) > 0 && (&gotN[0] != &wantN[0] || &gotW[0] != &wantW[0] || &ids[0] != &wantN[0]) {
			t.Fatalf("node %d: cursor rows do not alias the CSR rows", u)
		}
		if len(gotN) != cap(gotN) || len(gotW) != cap(gotW) || len(ids) != cap(ids) {
			t.Fatalf("node %d: cursor row capacity not clamped", u)
		}
	}
	cur.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		cur := adj.Cursor()
		_ = cur.NeighborIDs(7)
		cur.Close()
	}); allocs != 0 {
		t.Fatalf("CSR cursor open/read/close allocates %.1f per run, want 0", allocs)
	}
}

func TestCSRNodeWeightsDefaultOne(t *testing.T) {
	g := NewWithNodes(5, false)
	c := ToCSR(g)
	if c.TotalNodeWeight() != 5 {
		t.Fatalf("TotalNodeWeight=%d want 5", c.TotalNodeWeight())
	}
	for i, w := range c.NodeW {
		if w != 1 {
			t.Fatalf("NodeW[%d]=%d want 1", i, w)
		}
	}
}

func TestCSRWeightedDegreeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 20, 60)
	c := ToCSR(g)
	for u := 0; u < g.NumNodes(); u++ {
		gw := g.WeightedDegree(NodeID(u))
		cw := c.WeightedDegree(NodeID(u))
		if gw != cw {
			t.Fatalf("node %d: graph wdeg %g != csr wdeg %g", u, gw, cw)
		}
	}
}

func TestCSRRoundTripUndirected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(25), 50)
		back := ToCSR(g).ToGraph(false)
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v NodeID, w float64) bool {
			if back.EdgeWeight(u, v) != w {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRoundTripDirected(t *testing.T) {
	g := NewWithNodes(4, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(2, 3, 1)
	back := ToCSR(g).ToGraph(true)
	if back.NumEdges() != 3 {
		t.Fatalf("NumEdges=%d want 3", back.NumEdges())
	}
	if back.EdgeWeight(1, 0) != 2 {
		t.Fatalf("weight 1->0 = %g want 2", back.EdgeWeight(1, 0))
	}
	if back.EdgeWeight(3, 2) != 0 {
		t.Fatal("directed round trip created reverse arc")
	}
}
