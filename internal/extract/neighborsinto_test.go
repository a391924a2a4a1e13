package extract

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// viaNeighbors forces an Adjacency's NeighborsInto through the plain
// Neighbors path (copying into the caller's buffers), so tests can pin the
// zero-alloc fast path bit-for-bit against the reference behavior.
type viaNeighbors struct{ graph.Adjacency }

func (v viaNeighbors) NeighborsInto(u graph.NodeID, nbrBuf []graph.NodeID, wBuf []float64) ([]graph.NodeID, []float64) {
	nbrs, ws := v.Adjacency.Neighbors(u)
	return append(nbrBuf, nbrs...), append(wBuf, ws...)
}

// TestNeighborsIntoKernelsBitIdentical is the property test for the
// zero-alloc conversion: every kernel that now reads the adjacency through
// NeighborsInto must produce exactly the result it produced through
// Neighbors, across random graphs, sources and worker-pool widths.
func TestNeighborsIntoKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(120)
		g := randomConnected(rng, n, rng.Intn(4*n))
		c := graph.ToCSR(g)
		ref := viaNeighbors{c}
		src := graph.NodeID(rng.Intn(n))

		// RWR power iteration.
		fast, err := RWR(c, src, RWROptions{MaxIter: 40})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := RWR(ref, src, RWROptions{MaxIter: 40})
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
				t.Fatalf("trial %d RWR[%d]: %v != %v", trial, i, fast[i], slow[i])
			}
		}

		// Residual push.
		fast, err = RWRPush(c, src, 0.15, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		slow, err = RWRPush(ref, src, 0.15, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
				t.Fatalf("trial %d push[%d]: %v != %v", trial, i, fast[i], slow[i])
			}
		}

		// Full extraction (goodness + key paths + induced subgraph),
		// including the parallel fan-out.
		sources := []graph.NodeID{src, graph.NodeID((int(src) + n/2) % n)}
		opts := Options{Budget: 10 + rng.Intn(10), RWR: RWROptions{Parallel: 1 + trial%3}}
		want, err := ConnectionSubgraphAdj(ref, g.Directed(), g.Label, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConnectionSubgraphAdj(c, g.Directed(), g.Label, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.TotalGoodness) != math.Float64bits(want.TotalGoodness) ||
			len(got.Nodes) != len(want.Nodes) || got.Subgraph.NumEdges() != want.Subgraph.NumEdges() {
			t.Fatalf("trial %d extraction diverged: %v/%d/%d vs %v/%d/%d", trial,
				got.TotalGoodness, len(got.Nodes), got.Subgraph.NumEdges(),
				want.TotalGoodness, len(want.Nodes), want.Subgraph.NumEdges())
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("trial %d node %d: %d vs %d", trial, i, got.Nodes[i], want.Nodes[i])
			}
		}
	}
}
