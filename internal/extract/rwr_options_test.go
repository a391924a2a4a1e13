package extract

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestRWROptionsNormalizeRejectsOutOfRange(t *testing.T) {
	cases := []RWROptions{
		{Restart: 1.5},
		{Restart: 1},
		{Restart: -0.1},
		{Epsilon: -1e-9},
		// NaN fails every range comparison, so before the explicit check a
		// NaN restart slipped through Normalize unchanged, poisoned the
		// whole solve and got cached by the server; Inf likewise for
		// epsilon (an infinite threshold "converges" instantly).
		{Restart: math.NaN()},
		{Restart: math.Inf(1)},
		{Restart: math.Inf(-1)},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: math.Inf(-1)},
		{Restart: 0.15, Epsilon: math.NaN()},
	}
	for _, o := range cases {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted out-of-range options", o)
		}
	}
	// Zero values mean "default", not "invalid".
	o, err := RWROptions{}.Normalize()
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if o.Restart != 0.15 || o.Epsilon != 1e-10 || o.MaxIter != 200 || o.Parallel < 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	// Normalize is idempotent (the server re-normalizes canonicalized
	// options without drift).
	o2, err := o.Normalize()
	if err != nil || o2 != o {
		t.Fatalf("not idempotent: %+v vs %+v (err %v)", o2, o, err)
	}
}

// TestBadOptionsPropagate checks the rejection surfaces through every
// solver entry point instead of silently remapping to defaults.
func TestBadOptionsPropagate(t *testing.T) {
	g := pathGraph(6)
	c := graph.ToCSR(g)
	bad := RWROptions{Restart: 1.5}
	if _, err := RWR(c, 0, bad); err == nil {
		t.Fatal("RWR accepted restart 1.5")
	}
	if _, err := RWRSet(c, []graph.NodeID{0}, bad); err == nil {
		t.Fatal("RWRSet accepted restart 1.5")
	}
	if _, err := RWRMulti(c, []graph.NodeID{0, 3}, bad); err == nil {
		t.Fatal("RWRMulti accepted restart 1.5")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{RWR: bad}); err == nil {
		t.Fatal("ConnectionSubgraph accepted restart 1.5")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{RWR: RWROptions{Epsilon: -1}}); err == nil {
		t.Fatal("ConnectionSubgraph accepted negative epsilon")
	}
}

// TestConnectionSubgraphCSRMatchesAdjacency checks the cached-CSR entry
// point returns exactly what the per-call conversion does.
func TestConnectionSubgraphCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 150, 300)
	c := graph.ToCSR(g)
	sources := []graph.NodeID{4, 80, 120}
	want, err := ConnectionSubgraph(g, sources, Options{Budget: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // reuse the same CSR repeatedly
		got, err := ConnectionSubgraphCSR(g, c, sources, Options{Budget: 25})
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalGoodness != want.TotalGoodness || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("CSR path diverged: %v/%d vs %v/%d",
				got.TotalGoodness, len(got.Nodes), want.TotalGoodness, len(want.Nodes))
		}
		for j := range want.Nodes {
			if got.Nodes[j] != want.Nodes[j] {
				t.Fatalf("node %d: %d vs %d", j, got.Nodes[j], want.Nodes[j])
			}
		}
	}
}
