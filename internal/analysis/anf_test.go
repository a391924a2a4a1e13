package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestANFEmptyAndTrivial(t *testing.T) {
	res := ComputeANF(graph.ToCSR(graph.New(false)), false, ANFOptions{Seed: 1})
	if len(res.Counts) != 0 {
		t.Fatal("empty graph should give empty counts")
	}
	g := graph.NewWithNodes(5, false) // no edges
	res = ComputeANF(graph.ToCSR(g), false, ANFOptions{Seed: 1})
	if res.Counts[0] != 5 {
		t.Fatalf("h=0 count %g want 5", res.Counts[0])
	}
	// No edges: sketches never change; the plateau estimates n, with the
	// known FM small-cardinality bias (up to ~2x for single-element sets).
	last := res.Counts[len(res.Counts)-1]
	if last < 4 || last > 11 {
		t.Fatalf("edgeless plateau %g want n..2.2n", last)
	}
}

func TestANFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 150
	g := graph.NewWithNodes(n, false)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	res := ComputeANF(graph.ToCSR(g), false, ANFOptions{K: 24, Seed: 3})
	for h := 1; h < len(res.Counts); h++ {
		if res.Counts[h] < res.Counts[h-1] {
			t.Fatalf("ANF not monotone at h=%d: %v", h, res.Counts)
		}
	}
}

func TestANFMatchesExactHopPlot(t *testing.T) {
	// On a moderate connected graph the ANF plateau must approximate the
	// exact reachable-pair count (n^2 for connected) within FM error.
	rng := rand.New(rand.NewSource(4))
	n := 120
	g := graph.NewWithNodes(n, false)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 1)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	adj := graph.ToCSR(g)
	exact := ComputeHopPlot(adj, 0, newRand(1))
	approx := ComputeANF(adj, false, ANFOptions{K: 64, Seed: 5})
	pe := exact.Counts[len(exact.Counts)-1]
	pa := approx.Counts[len(approx.Counts)-1]
	if pa < 0.6*pe || pa > 1.6*pe {
		t.Fatalf("ANF plateau %g vs exact %g — outside FM error band", pa, pe)
	}
	// Effective diameters agree within 1 hop.
	d := approx.EffectiveDiameter - exact.EffectiveDiameter
	if d < -1 || d > 1 {
		t.Fatalf("effective diameter approx %d vs exact %d", approx.EffectiveDiameter, exact.EffectiveDiameter)
	}
}

func TestANFPathDiameterDetection(t *testing.T) {
	// A path of 20 nodes: propagation must stop by ~19 hops.
	g := path(20)
	res := ComputeANF(graph.ToCSR(g), false, ANFOptions{K: 16, Seed: 6, MaxHops: 64})
	if len(res.Counts) > 21 {
		t.Fatalf("propagation ran %d hops on a 20-node path", len(res.Counts))
	}
}

func TestANFDeterministicPerSeed(t *testing.T) {
	g := graph.ToCSR(star(10))
	a := ComputeANF(g, false, ANFOptions{Seed: 7})
	b := ComputeANF(g, false, ANFOptions{Seed: 7})
	if len(a.Counts) != len(b.Counts) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatal("nondeterministic counts")
		}
	}
}

func TestLowestZero(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{{0, 0}, {1, 1}, {0b111, 3}, {0b1011, 2}, {^uint64(0), 64}}
	for _, c := range cases {
		if got := lowestZero(c.x); got != c.want {
			t.Fatalf("lowestZero(%b)=%d want %d", c.x, got, c.want)
		}
	}
}
