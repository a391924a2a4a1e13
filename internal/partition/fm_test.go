package partition

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// refHeap is the container/heap form fmHeap replaced. It stays here as the
// reference the typed heap and the incremental refinement are held to.
type refHeap []fmEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(fmEntry)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// refFMRefine is FM refinement as it was before the incremental gain
// updates: every neighbour of a moved vertex is recomputed from its whole
// row, entries go through container/heap, and a pass pops its heap dry.
func refFMRefine(c *graph.CSR, side []int8, frac, imbalance float64, passes int) {
	if passes <= 0 || c.N() < 2 {
		return
	}
	n := c.N()
	total := float64(c.TotalNodeWeight())
	max0 := frac * total * imbalance
	max1 := (total - frac*total) * imbalance
	ext := make([]float64, n)
	intw := make([]float64, n)
	locked := make([]bool, n)
	stamp := make([]uint32, n)
	var w0 float64
	for u := 0; u < n; u++ {
		if side[u] == 0 {
			w0 += float64(c.NodeW[u])
		}
	}
	flip := func(u int32) {
		wu := float64(c.NodeW[u])
		if side[u] == 0 {
			side[u] = 1
			w0 -= wu
		} else {
			side[u] = 0
			w0 += wu
		}
	}
	for pass := 0; pass < passes; pass++ {
		var h refHeap
		requeue := func(u int32) {
			ext[u], intw[u] = fmGains(c, side, u)
			stamp[u]++
			if ext[u] > 0 || intw[u] == 0 {
				heap.Push(&h, fmEntry{gain: ext[u] - intw[u], node: u, stamp: stamp[u]})
			}
		}
		for u := int32(0); u < int32(n); u++ {
			locked[u] = false
			requeue(u)
		}
		if h.Len() == 0 {
			return
		}
		var moves []int32
		var cum, best float64
		bestIdx := -1
		for h.Len() > 0 {
			e := heap.Pop(&h).(fmEntry)
			u := e.node
			if locked[u] || e.stamp != stamp[u] {
				continue
			}
			wu := float64(c.NodeW[u])
			if side[u] == 0 && (total-w0)+wu > max1 || side[u] == 1 && w0+wu > max0 {
				continue
			}
			cum += ext[u] - intw[u]
			flip(u)
			locked[u] = true
			moves = append(moves, u)
			if cum > best || (cum == best && bestIdx < 0) {
				best, bestIdx = cum, len(moves)-1
			}
			nbrs, _ := c.Neighbors(graph.NodeID(u))
			for _, v := range nbrs {
				if int32(v) != u && !locked[v] {
					requeue(int32(v))
				}
			}
			ext[u], intw[u] = intw[u], ext[u]
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			flip(moves[i])
		}
		if best <= 0 {
			return
		}
	}
}

// TestFMHeapMatchesContainerHeap: over seeded random push/pop interleavings
// with heavy gain ties, fmHeap holds the same slice layout as container/heap
// after every operation and therefore pops the same (gain, node, stamp)
// sequence.
func TestFMHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got fmHeap
		var want refHeap
		distinctGains := 1 + rng.Intn(6)
		for op := 0; op < 4000; op++ {
			// Push-heavy first, pop-heavy later, so the heap grows deep
			// and then drains.
			if len(want) == 0 || rng.Intn(4000) > op {
				e := fmEntry{gain: float64(rng.Intn(distinctGains)), node: int32(op), stamp: rng.Uint32()}
				got.push(e)
				heap.Push(&want, e)
			} else if g, w := got.pop(), heap.Pop(&want).(fmEntry); g != w {
				t.Fatalf("seed %d op %d: popped %+v, container/heap pops %+v", seed, op, g, w)
			}
			if !slices.Equal([]fmEntry(got), []fmEntry(want)) {
				t.Fatalf("seed %d op %d: heap layouts diverged", seed, op)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(fmEntry); g != w {
				t.Fatalf("seed %d drain: popped %+v, container/heap pops %+v", seed, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d entries left after the reference drained", seed, len(got))
		}
	}
}

// fmFixture is a random community multigraph: parallel edges are left
// unmerged, a few vertices carry self-loops or stay isolated, and node
// weights vary — every row shape fmRefine has to get right.
func fmFixture(rng *rand.Rand, weight func() float64) *graph.CSR {
	g := randomCommunityGraph(rng, 4, 25+rng.Intn(15), 0.25, 0.03)
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), weight())
	}
	g.AddNodes(3)
	c := graph.ToCSR(g)
	for u := range c.NodeW {
		c.NodeW[u] = int32(1 + rng.Intn(3))
	}
	return c
}

func randomSides(rng *rand.Rand, n int) []int8 {
	side := make([]int8, n)
	for u := range side {
		side[u] = int8(rng.Intn(2))
	}
	return side
}

// TestFMIncrementalMatchesRecompute: after every applied move, ext/intw of
// every unlocked vertex equal a from-scratch recompute — exactly for integer
// weights, within 1e-9 of the vertex's weighted degree for random floats.
func TestFMIncrementalMatchesRecompute(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight func(*rand.Rand) float64
		tol    float64
	}{
		{"integer", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(5)) }, 0},
		{"float", func(rng *rand.Rand) float64 { return rng.Float64()*10 + 1e-3 }, 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := fmFixture(rng, func() float64 { return tc.weight(rng) })
				side := randomSides(rng, c.N())
				sc := newFMScratch(c.N())
				checked := 0
				sc.afterMove = func() {
					for v := int32(0); v < int32(c.N()); v++ {
						if sc.state[v] == fmLocked {
							continue
						}
						e, in := fmGains(c, side, v)
						tol := tc.tol * (e + in)
						if math.Abs(sc.ext[v]-e) > tol || math.Abs(sc.intw[v]-in) > tol {
							t.Fatalf("seed %d, vertex %d: ext/intw = %v/%v, recompute gives %v/%v",
								seed, v, sc.ext[v], sc.intw[v], e, in)
						}
					}
					checked++
				}
				fmRefine(c, side, 0.5, 1.10, 4, sc)
				if checked == 0 || checked != sc.stats.moves {
					t.Fatalf("seed %d: checked %d moves of %d", seed, checked, sc.stats.moves)
				}
			}
		})
	}
}

// TestFMMatchesReference: on integer-weighted multigraphs fmRefine leaves
// exactly the bisection the pre-incremental refinement leaves, at every
// target fraction the recursive bisection uses.
func TestFMMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := fmFixture(rng, func() float64 { return float64(1 + rng.Intn(4)) })
		frac := []float64{0.5, 0.4, 1.0 / 3}[seed%3]
		got := randomSides(rng, c.N())
		want := slices.Clone(got)
		fmRefine(c, got, frac, 1.10, 4, newFMScratch(c.N()))
		refFMRefine(c, want, frac, 1.10, 4)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: bisection differs from the reference refinement", seed)
		}
	}
}

// TestFMWorkIsLinear bounds fmRefine's work by counts, which read the same
// on every machine. The graph is a star of cliques — three hubs adjacent to
// every clique vertex — so Σ deg² is ~100x the half-edge count and rescanning
// a neighbour's row per move would blow the first bound.
func TestFMWorkIsLinear(t *testing.T) {
	const hubs, cliques, size = 3, 40, 12
	n := hubs + cliques*size
	g := graph.NewWithNodes(n, false)
	for k := 0; k < cliques; k++ {
		base := hubs + k*size
		for i := 0; i < size; i++ {
			for h := 0; h < hubs; h++ {
				g.AddEdge(graph.NodeID(h), graph.NodeID(base+i), 1)
			}
			for j := i + 1; j < size; j++ {
				g.AddEdge(graph.NodeID(base+i), graph.NodeID(base+j), 1)
			}
		}
	}
	c := graph.ToCSR(g)
	var sumDegSq int
	for u := 0; u < n; u++ {
		d := c.Degree(graph.NodeID(u))
		sumDegSq += d * d
	}
	if sumDegSq < 20*c.HalfEdges() {
		t.Fatalf("fixture is not hub-heavy: Σdeg² = %d, half-edges = %d", sumDegSq, c.HalfEdges())
	}

	side := randomSides(rand.New(rand.NewSource(1)), n)
	sc := newFMScratch(n)
	fmRefine(c, side, 0.5, 1.10, 4, sc)
	st := sc.stats
	t.Logf("%+v, half-edges %d, Σdeg² %d", st, c.HalfEdges(), sumDegSq)
	if st.passes < 1 || st.moves == 0 {
		t.Fatalf("refinement did nothing: %+v", st)
	}
	if st.gainUpdates > st.passes*c.HalfEdges() {
		t.Errorf("gainUpdates = %d > passes·halfEdges = %d", st.gainUpdates, st.passes*c.HalfEdges())
	}
	if st.moves > st.passes*n {
		t.Errorf("moves = %d > passes·n = %d", st.moves, st.passes*n)
	}
	if st.pops > st.pushes || st.pops+st.stalePopsSkipped != st.pushes {
		t.Errorf("pops %d + skipped %d != pushes %d", st.pops, st.stalePopsSkipped, st.pushes)
	}
}
