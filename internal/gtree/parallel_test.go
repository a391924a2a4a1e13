package gtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/partition"
)

// The parallel build must be bit-identical to the sequential one: tree
// ids, membership, connectivity — everything.
func TestBuildParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := communityGraph(rng, 8, 30, 0.3, 0.02)
	build := func(par int) *Tree {
		tr, err := Build(g, BuildOptions{
			K: 3, Levels: 4, Parallel: par,
			Partition: partition.Options{Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seq := build(1)
	for _, par := range []int{2, 4, 16} {
		p := build(par)
		if p.NumCommunities() != seq.NumCommunities() {
			t.Fatalf("parallel=%d: %d communities vs %d sequential",
				par, p.NumCommunities(), seq.NumCommunities())
		}
		for i := 0; i < seq.NumCommunities(); i++ {
			a, b := seq.Node(TreeID(i)), p.Node(TreeID(i))
			if a.Parent != b.Parent || a.Level != b.Level || a.Size != b.Size {
				t.Fatalf("parallel=%d: node %d differs", par, i)
			}
		}
		if !slices.Equal(leafOf(seq, g.NumNodes()), leafOf(p, g.NumNodes())) {
			t.Fatalf("parallel=%d: leaf assignment differs", par)
		}
		same := true
		seq.ConnectedPairs(func(a, b TreeID, s ConnStat) bool {
			if p.Connectivity(a, b) != s {
				same = false
				return false
			}
			return true
		})
		if !same {
			t.Fatalf("parallel=%d: connectivity differs", par)
		}
	}
}

// Exercised under -race in CI: concurrent partitioning of sibling
// communities must not race on shared state.
func TestBuildParallelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := communityGraph(rng, 9, 25, 0.3, 0.03)
	for i := 0; i < 3; i++ {
		if _, err := Build(g, BuildOptions{
			K: 3, Levels: 4, Parallel: 8,
			Partition: partition.Options{Seed: int64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
}
