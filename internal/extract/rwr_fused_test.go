package extract

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// probeAdj counts the whole-graph passes a solve makes over an adjacency,
// records the node range of each, and lets a test act on the i-th one.
type probeAdj struct {
	graph.Adjacency
	sweeps  int
	ranges  [][2]graph.NodeID
	onSweep func(call int) error // non-nil error is returned in place of the pass
}

func (p *probeAdj) SweepEdges(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool) error {
	p.sweeps++
	p.ranges = append(p.ranges, [2]graph.NodeID{lo, hi})
	if p.onSweep != nil {
		if err := p.onSweep(p.sweeps); err != nil {
			return err
		}
	}
	return p.Adjacency.SweepEdges(lo, hi, fn)
}

// fusedFixture is a directed random graph with the two rows a blocked
// solve must not mix up between walks: node n-2 is dangling (edges in,
// none out — every walk that reaches it restarts from there) and node n-1
// is isolated (as a source its walk converges on the first pass while the
// others run on).
func fusedFixture(rng *rand.Rand, n int) *graph.Graph {
	g := graph.NewWithNodes(n, true)
	body := n - 2
	for i := 0; i < body; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%body), 1+rng.Float64())
	}
	for i := 0; i < 3*body; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(body)), graph.NodeID(rng.Intn(body)), 1+rng.Float64())
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(body)), graph.NodeID(n-2), 1)
	}
	g.Dedup()
	return g
}

// TestRWRMultiFusedBitIdentical is the property test of the blocked solve:
// for one to five sources — drawn so that they converge at different
// iterations, with the isolated node and the dangling node among them —
// every vector RWRMulti returns equals RWR run alone on that source, bit
// for bit, on the CSR and on a paged CSR at pool 16; and the solve costs as
// many passes over the graph as its slowest source, not the sum. A small
// MaxIter caps the slow walks while the isolated source still converges.
func TestRWRMultiFusedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	staggered, cappedBesideConverged := false, false
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(160)
		g := fusedFixture(rng, n)
		k := 1 + trial%5
		sources := []graph.NodeID{graph.NodeID(n - 1), graph.NodeID(n - 2)}
		for _, s := range rng.Perm(n - 2)[:3] {
			sources = append(sources, graph.NodeID(s))
		}
		rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		sources = sources[:k]
		for _, maxIter := range []int{0, 4} {
			opts := RWROptions{Restart: 0.05 + 0.6*rng.Float64(), MaxIter: maxIter, Parallel: 1 + trial%3}
			for name, adj := range map[string]graph.Adjacency{"csr": graph.ToCSR(g), "paged": pagedFixture(t, g, 16)} {
				probe := &probeAdj{Adjacency: adj}
				slowest, fastest, sum := 0, math.MaxInt, 0
				want := make([][]float64, k)
				for i, s := range sources {
					probe.sweeps = 0
					r, err := RWR(probe, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = r
					slowest, fastest, sum = max(slowest, probe.sweeps), min(fastest, probe.sweeps), sum+probe.sweeps
				}
				staggered = staggered || (maxIter == 0 && fastest < slowest)
				cappedBesideConverged = cappedBesideConverged || (slowest == maxIter && fastest < maxIter)
				probe.sweeps = 0
				got, err := RWRMulti(probe, sources, opts)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				if probe.sweeps != slowest {
					t.Fatalf("trial %d %s maxIter %d: %d sources cost %d sweeps, want the slowest source's %d (their sum is %d)",
						trial, name, maxIter, k, probe.sweeps, slowest, sum)
				}
				for i := range want {
					for v := range want[i] {
						if math.Float64bits(got[i][v]) != math.Float64bits(want[i][v]) {
							t.Fatalf("trial %d %s maxIter %d source %d node %d: fused %v, alone %v",
								trial, name, maxIter, sources[i], v, got[i][v], want[i][v])
						}
					}
				}
			}
		}
	}
	if !staggered || !cappedBesideConverged {
		t.Fatalf("premise broken: sources converging at different iterations seen=%v, capped beside converged seen=%v",
			staggered, cappedBesideConverged)
	}
}

// TestRWRMultiFusedStopsAsOne: whatever ends one walk's pass ends the
// whole blocked solve — a context cancelled between iterations returns
// ctx.Err(), a sweep error returns that error — and a paged backend is
// left holding no frames either way. Bad sources are rejected before any
// pass, and no sources is an empty answer.
func TestRWRMultiFusedStopsAsOne(t *testing.T) {
	g := fusedFixture(rand.New(rand.NewSource(25)), 300)
	sources := []graph.NodeID{4, 150, 298}
	store, paged := pagedStoreFixture(t, g, 16)
	for name, adj := range map[string]graph.Adjacency{"csr": graph.ToCSR(g), "paged": paged} {
		ctx, cancel := context.WithCancel(context.Background())
		probe := &probeAdj{Adjacency: adj, onSweep: func(call int) error {
			if call == 3 {
				cancel()
			}
			return nil
		}}
		if _, err := RWRMulti(probe, sources, RWROptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled solve returned %v", name, err)
		}
		if probe.sweeps != 3 {
			t.Fatalf("%s: %d sweeps after a cancel during the third", name, probe.sweeps)
		}
		cancel()

		boom := errors.New("boom")
		probe = &probeAdj{Adjacency: adj, onSweep: func(call int) error {
			if call == 2 {
				return boom
			}
			return nil
		}}
		if _, err := RWRMulti(probe, sources, RWROptions{}); !errors.Is(err, boom) {
			t.Fatalf("%s: failed sweep returned %v", name, err)
		}
		if probe.sweeps != 2 {
			t.Fatalf("%s: %d sweeps after the second failed", name, probe.sweeps)
		}

		probe = &probeAdj{Adjacency: adj}
		if _, err := RWRMulti(probe, []graph.NodeID{2, 999}, RWROptions{}); err == nil || probe.sweeps != 0 {
			t.Fatalf("%s: out-of-range source: err %v after %d sweeps", name, err, probe.sweeps)
		}
		if out, err := RWRMulti(probe, nil, RWROptions{}); err != nil || len(out) != 0 {
			t.Fatalf("%s: empty source set: out=%v err=%v", name, out, err)
		}
	}
	if pinned := store.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames pinned after the stopped solves", pinned)
	}
}

// TestRWRMultiNeverShards: whatever Parallel and Shards say, and for one
// source or several, every power iteration of RWRMulti is exactly one
// sweep over the whole node range — nothing splits a pass.
func TestRWRMultiNeverShards(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(26)), 400, 1600)
	n := graph.NodeID(g.NumNodes())
	for _, par := range []int{0, 1, 4} {
		for _, sources := range [][]graph.NodeID{{3}, {3, 200, 399}} {
			probe := &probeAdj{Adjacency: graph.ToCSR(g)}
			if _, err := RWRMulti(probe, sources, RWROptions{Parallel: par, Shards: 4}); err != nil {
				t.Fatal(err)
			}
			if probe.sweeps == 0 {
				t.Fatalf("parallel %d, %d sources: no sweep", par, len(sources))
			}
			for i, r := range probe.ranges {
				if r != [2]graph.NodeID{0, n} {
					t.Fatalf("parallel %d, %d sources: pass %d swept [%d,%d), want [0,%d)", par, len(sources), i, r[0], r[1], n)
				}
			}
		}
	}
}
