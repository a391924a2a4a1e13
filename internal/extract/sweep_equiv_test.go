package extract

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/gtree"
)

// nodeCentricOnly hides the optional EdgeSweeper/NeighborIDSweeper
// interfaces by embedding the Adjacency interface value, forcing kernels
// down the node-centric NeighborsInto path — the pre-sweep behavior.
type nodeCentricOnly struct{ graph.Adjacency }

// pagedFixture persists g and opens it as a PagedCSR over a small-page
// file (multi-page runs) with the given pool size.
func pagedFixture(t *testing.T, g *graph.Graph, poolPages int) *gtree.PagedCSR {
	t.Helper()
	_, c := pagedStoreFixture(t, g, poolPages)
	return c
}

// pagedStoreFixture is pagedFixture that also hands out the store, for
// tests that read its pool counters.
func pagedStoreFixture(t *testing.T, g *graph.Graph, poolPages int) (*gtree.Store, *gtree.PagedCSR) {
	t.Helper()
	tree, err := gtree.Build(g, gtree.BuildOptions{K: 3, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "equiv.gtree")
	if err := gtree.Save(tree, g, path, 256); err != nil {
		t.Fatal(err)
	}
	s, err := gtree.OpenFile(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestRWRSetSweepBitIdentical is the tentpole property test: across
// random graphs and source sets, the edge-centric sweep solve must equal
// the node-centric solve bit for bit — on the in-memory CSR and on the
// paged CSR, which in turn must equal each other.
func TestRWRSetSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(150)
		g := randomConnected(rng, n, rng.Intn(4*n))
		csr := graph.ToCSR(g)
		paged := pagedFixture(t, g, 8+rng.Intn(64))
		m := 1 + rng.Intn(4)
		sources := make([]graph.NodeID, m)
		for i := range sources {
			sources[i] = graph.NodeID(rng.Intn(n))
		}
		opts := RWROptions{Restart: 0.05 + 0.9*rng.Float64(), MaxIter: 40}

		want, err := RWRSet(nodeCentricOnly{csr}, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, adj := range map[string]graph.Adjacency{
			"csr-sweep":        csr,
			"paged-sweep":      paged,
			"paged-nodewise":   nodeCentricOnly{paged},
			"csr-nodecentric2": nodeCentricOnly{csr},
		} {
			got, err := RWRSet(adj, sources, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for v := range want {
				if got[v] != want[v] { // exact bits, intentionally
					t.Fatalf("trial %d %s node %d: %v != %v", trial, name, v, got[v], want[v])
				}
			}
		}
		if err := paged.Err(); err != nil {
			t.Fatalf("trial %d: paged fault: %v", trial, err)
		}
	}
}

// TestConnectionSubgraphSweepBitIdentical: the full extraction pipeline
// (RWR + goodness + key paths) lands on the same subgraph whether the
// solves sweep or walk node by node, memory or paged.
func TestConnectionSubgraphSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 250, 900)
	csr := graph.ToCSR(g)
	paged := pagedFixture(t, g, 32)
	sources := []graph.NodeID{5, 130, 240}
	opts := Options{Budget: 25}

	want, err := ConnectionSubgraphAdj(nodeCentricOnly{csr}, false, nil, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, adj := range map[string]graph.Adjacency{"csr": csr, "paged": paged} {
		got, err := ConnectionSubgraphAdj(adj, false, nil, sources, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.TotalGoodness != want.TotalGoodness || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s diverged: %v/%d vs %v/%d", name,
				got.TotalGoodness, len(got.Nodes), want.TotalGoodness, len(want.Nodes))
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%s node %d: %d vs %d", name, i, got.Nodes[i], want.Nodes[i])
			}
		}
		for i := range want.Goodness {
			if got.Goodness[i] != want.Goodness[i] {
				t.Fatalf("%s goodness %d: %v vs %v", name, i, got.Goodness[i], want.Goodness[i])
			}
		}
	}
}
