package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestPageRankCSRMatchesAdjacency checks PageRankAdj on a prebuilt CSR is
// exactly PageRank on the graph (PageRank converts and delegates), so
// reuse of a cached CSR can never change analysis results.
func TestPageRankCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(100)
		g := graph.NewWithNodes(n, false)
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64())
			}
		}
		g.Dedup()
		c := graph.ToCSR(g)
		viaGraph := PageRank(g, PageRankOptions{})
		viaCSR := PageRankAdj(c, PageRankOptions{})
		// And again on the same (now warm) CSR: the cached weighted-degree
		// table must not drift results.
		again := PageRankAdj(c, PageRankOptions{})
		for i := range viaGraph {
			if viaGraph[i] != viaCSR[i] || viaCSR[i] != again[i] {
				t.Fatalf("trial %d node %d: graph %v csr %v warm %v",
					trial, i, viaGraph[i], viaCSR[i], again[i])
			}
		}
	}
}
