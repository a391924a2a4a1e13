package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// induce runs Induced over g's CSR with g's labels.
func induce(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	return Induced(ToCSR(g), g.Directed(), g.Label, nodes)
}

func TestInducedBasic(t *testing.T) {
	g := NewWithNodes(5, false)
	g.SetLabel(1, "b")
	g.SetLabel(3, "d")
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 2)
	g.AddEdge(3, 4, 1)
	sub, m := induce(g, []NodeID{1, 3})
	if sub.NumNodes() != 2 {
		t.Fatalf("n=%d want 2", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", sub.NumEdges())
	}
	if sub.EdgeWeight(0, 1) != 2 {
		t.Fatalf("edge weight=%g want 2", sub.EdgeWeight(0, 1))
	}
	if m[0] != 1 || m[1] != 3 {
		t.Fatalf("mapping=%v want [1 3]", m)
	}
	if sub.Label(0) != "b" || sub.Label(1) != "d" {
		t.Fatalf("labels lost: %q %q", sub.Label(0), sub.Label(1))
	}
	// Only non-empty labels are set: unlabeled picks make an unlabeled
	// subgraph of a labeled graph.
	if sub, _ := induce(g, []NodeID{0, 4}); sub.Labeled() {
		t.Fatalf("picks without labels gave a labeled subgraph %q", sub.Labels())
	}
}

func TestInducedIgnoresDuplicates(t *testing.T) {
	g := NewWithNodes(3, false)
	g.AddEdge(0, 1, 1)
	sub, m := induce(g, []NodeID{1, 1, 0, 1})
	if sub.NumNodes() != 2 || len(m) != 2 {
		t.Fatalf("n=%d len(m)=%d want 2 2", sub.NumNodes(), len(m))
	}
	if m[0] != 1 || m[1] != 0 {
		t.Fatalf("order of first appearance not kept: %v", m)
	}
}

func TestInducedSelfLoopKept(t *testing.T) {
	g := NewWithNodes(2, false)
	g.AddEdge(0, 0, 5)
	sub, _ := induce(g, []NodeID{0})
	if sub.NumEdges() != 1 || sub.EdgeWeight(0, 0) != 5 {
		t.Fatalf("self-loop lost: m=%d w=%g", sub.NumEdges(), sub.EdgeWeight(0, 0))
	}
}

func TestInducedDirected(t *testing.T) {
	g := NewWithNodes(3, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(1, 2, 1)
	sub, _ := induce(g, []NodeID{0, 1})
	if sub.NumEdges() != 2 {
		t.Fatalf("m=%d want 2", sub.NumEdges())
	}
	if sub.EdgeWeight(0, 1) != 1 || sub.EdgeWeight(1, 0) != 2 {
		t.Fatal("directed weights scrambled")
	}
}

func TestInducedEmptySelection(t *testing.T) {
	g := NewWithNodes(3, false)
	g.AddEdge(0, 1, 1)
	sub, m := induce(g, nil)
	if sub.NumNodes() != 0 || len(m) != 0 {
		t.Fatal("empty selection produced non-empty subgraph")
	}
}

// Property: induced subgraph edges are exactly the original edges with both
// endpoints selected, with identical weights.
func TestPropertyInducedEdgePreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(20), 40)
		sel := map[NodeID]bool{}
		var nodes []NodeID
		for u := 0; u < g.NumNodes(); u++ {
			if rng.Intn(2) == 0 {
				sel[NodeID(u)] = true
				nodes = append(nodes, NodeID(u))
			}
		}
		sub, m := induce(g, nodes)
		// Count expected edges.
		want := 0
		g.Edges(func(u, v NodeID, w float64) bool {
			if sel[u] && sel[v] {
				want++
			}
			return true
		})
		if sub.NumEdges() != want {
			return false
		}
		// Every subgraph edge maps back with the same weight.
		ok := true
		sub.Edges(func(u, v NodeID, w float64) bool {
			if g.EdgeWeight(m[u], m[v]) != w {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
