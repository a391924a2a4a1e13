package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Directed() != b.Directed() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		if a.Label(NodeID(u)) != b.Label(NodeID(u)) {
			return false
		}
	}
	equal := true
	a.Edges(func(u, v NodeID, w float64) bool {
		if b.EdgeWeight(u, v) != w {
			equal = false
			return false
		}
		return true
	})
	return equal
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := NewWithNodes(4, false)
	g.SetLabel(0, "Jiawei Han")
	g.SetLabel(3, "Ke Wang")
	g.AddEdge(0, 3, 12)
	g.AddEdge(1, 2, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatalf("edge-list round trip mismatch:\n%s", buf.String())
	}
}

func TestEdgeListDirectedHeader(t *testing.T) {
	g := NewWithNodes(2, true)
	g.AddEdge(0, 1, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# directed") {
		t.Fatalf("missing directed header:\n%s", buf.String())
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Directed() {
		t.Fatal("directedness lost in round trip")
	}
	if back.HasEdge(1, 0) {
		t.Fatal("reverse arc appeared")
	}
}

func TestEdgeListIsolatedNodesPreserved(t *testing.T) {
	g := NewWithNodes(10, false)
	g.AddEdge(0, 1, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 10 {
		t.Fatalf("isolated nodes lost: n=%d want 10", back.NumNodes())
	}
}

func TestEdgeListDefaultWeight(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight(0, 1) != 1 {
		t.Fatalf("default weight=%g want 1", g.EdgeWeight(0, 1))
	}
	if g.EdgeWeight(1, 2) != 4 {
		t.Fatalf("explicit weight=%g want 4", g.EdgeWeight(1, 2))
	}
}

func TestEdgeListSkipsBlanksAndComments(t *testing.T) {
	in := "\n# a comment\n\n0 1 2\n   \n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges())
	}
}

func TestPropertyEdgeListRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), 40)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// edgeListRejects are inputs the reader cannot parse or the graph cannot
// represent, each with the line its error must name. The rows from "node
// id 2^31-1" on hold an id or count of 2^31-1 or more, which a reader
// without the bound would try to allocate; a run against such a reader
// leaves them out.
var edgeListRejects = []struct {
	name, in string
	line     int
}{
	{"one field", "0\n", 1},
	{"non-numeric nodes", "a b\n", 1},
	{"non-numeric weight", "0 1 x\n", 1},
	{"non-numeric node count", "# nodes z\n", 1},
	{"negative node", "0 1\n-1 2\n", 2},
	{"negative neighbor", "3 -2\n", 1},
	{"negative label id", "0 1\n# label -1 Ann\n", 2},
	{"negative node count", "# nodes -1\n", 1},
	{"NaN weight", "0 1 NaN\n", 1},
	{"+Inf weight", "0 1 +Inf\n", 1},
	{"-Inf weight", "0 1 -inf\n", 1},
	{"negative weight", "0 1 1\n1 2 -0.5\n", 2},
	{"overflowing weight", "0 1 1e400\n", 1},
	{"directed after an edge", "0 1\n# directed\n", 2},
	{"undirected after an edge", "0 1\n# undirected\n", 2},
	{"directed after the node count", "# nodes 3\n# directed\n0 1\n", 2},
	{"conflicting directedness", "# undirected\n# directed\n0 1\n", 2},
	{"node id 2^31-1", "0 2147483647\n", 1},
	{"node id 2^31", "2147483648 0\n", 1},
	{"node id 2^40", "0 1099511627776\n", 1},
	{"label id 2^31", "# label 2147483648 Ann\n", 1},
	{"node count 2^31", "# nodes 2147483648\n", 1},
}

func TestEdgeListRejectsGarbage(t *testing.T) {
	for _, tc := range edgeListRejects {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q: %d nodes, %d edges", tc.in, g.NumNodes(), g.NumEdges())
			}
			if want := fmt.Sprintf("line %d:", tc.line); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}

// TestReadEdgeListAcceptsBoundaries: the rules' edges are inside them.
func TestReadEdgeListAcceptsBoundaries(t *testing.T) {
	in := "# comment first\n# directed\n# nodes 3\n0 1 0\n1 2\n# label 2 Ann\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumNodes() != 3 || g.NumEdges() != 2 || g.Label(2) != "Ann" {
		t.Fatalf("directed=%v n=%d m=%d label=%q", g.Directed(), g.NumNodes(), g.NumEdges(), g.Label(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
