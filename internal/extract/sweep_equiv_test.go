package extract

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/gtree"
)

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
	if err := gtree.Save(tree, graph.ToCSR(g), g.Directed(), g.Label, path, 256); err != nil {
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

// requireVector fails unless got equals want bit for bit.
func requireVector(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", tag, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s node %d: %v != %v", tag, v, got[v], want[v])
		}
	}
}

// TestRWRSetSweepBitIdentical: across random graphs, source sets and pool
// sizes, the RWR sweep solve on a paged CSR equals the in-memory solve bit
// for bit.
func TestRWRSetSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(150)
		g := randomConnected(rng, n, rng.Intn(4*n))
		paged := pagedFixture(t, g, 8+rng.Intn(64))
		m := 1 + rng.Intn(4)
		sources := make([]graph.NodeID, m)
		for i := range sources {
			sources[i] = graph.NodeID(rng.Intn(n))
		}
		opts := RWROptions{Restart: 0.05 + 0.9*rng.Float64(), MaxIter: 40}
		want, err := RWRSet(graph.ToCSR(g), sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RWRSet(paged, sources, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireVector(t, "paged", got, want)
		if err := paged.Err(); err != nil {
			t.Fatalf("trial %d: paged fault: %v", trial, err)
		}
	}
}

// TestConnectionSubgraphSweepBitIdentical: the full extraction pipeline
// (RWR + goodness + key paths) lands on the same subgraph in memory and
// paged.
func TestConnectionSubgraphSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 250, 900)
	sources := []graph.NodeID{5, 130, 240}
	opts := Options{Budget: 25}
	want, err := ConnectionSubgraphAdj(graph.ToCSR(g), false, nil, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConnectionSubgraphAdj(pagedFixture(t, g, 32), false, nil, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(got) != resultDigest(want) {
		t.Fatalf("paged extraction diverged: %v/%d vs %v/%d",
			got.TotalGoodness, len(got.Nodes), want.TotalGoodness, len(want.Nodes))
	}
}

// TestRWRSetShardedBitIdentical: RWROptions.Shards is accepted and
// ignored, so a solve asking for any shard count equals the default solve
// bit for bit, on both backends.
func TestRWRSetShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(160)
		g := randomConnected(rng, n, rng.Intn(4*n))
		csr := graph.ToCSR(g)
		paged := pagedFixture(t, g, 8+rng.Intn(48))
		sources := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		opts := RWROptions{Restart: 0.05 + 0.9*rng.Float64(), MaxIter: 40}
		want, err := RWRSet(csr, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{-1, 1, 2, 8} {
			opts.Shards = shards
			for name, adj := range map[string]graph.Adjacency{"csr": csr, "paged": paged} {
				got, err := RWRSet(adj, sources, opts)
				if err != nil {
					t.Fatalf("trial %d %s shards=%d: %v", trial, name, shards, err)
				}
				requireVector(t, name, got, want)
			}
		}
	}
}

// TestRWRMultiShardedBitIdentical: RWRMulti ignores Parallel and Shards in
// every combination — each vector equals the default solve's bit for bit.
func TestRWRMultiShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := randomConnected(rng, 180, 650)
	csr := graph.ToCSR(g)
	paged := pagedFixture(t, g, 16)
	sources := []graph.NodeID{2, 40, 90, 140, 179}
	want, err := RWRMulti(csr, sources, RWROptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			opts := RWROptions{MaxIter: 50, Parallel: par, Shards: shards}
			for name, adj := range map[string]graph.Adjacency{"csr": csr, "paged": paged} {
				got, err := RWRMulti(adj, sources, opts)
				if err != nil {
					t.Fatalf("%s parallel=%d shards=%d: %v", name, par, shards, err)
				}
				for i := range want {
					requireVector(t, name, got[i], want[i])
				}
			}
		}
	}
}
