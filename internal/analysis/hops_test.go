package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// sliceQueueBFS is the textbook BFS with a growing slice queue over the
// graph's own rows; it referees bfsInto.
func sliceQueueBFS(g *graph.Graph, src graph.NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// refHopPlot is ComputeHopPlot with one slice-queue BFS per source and
// the same rng draws.
func refHopPlot(g *graph.Graph, samples int, rng *rand.Rand) HopPlot {
	n := g.NumNodes()
	hp := HopPlot{}
	if n == 0 {
		return hp
	}
	var sources []graph.NodeID
	if samples <= 0 || samples >= n {
		for i := 0; i < n; i++ {
			sources = append(sources, graph.NodeID(i))
		}
	} else {
		for _, i := range rng.Perm(n)[:samples] {
			sources = append(sources, graph.NodeID(i))
		}
	}
	hp.Samples = len(sources)
	var perHop []float64
	for _, s := range sources {
		for _, d := range sliceQueueBFS(g, s) {
			if d < 0 {
				continue
			}
			for int(d) >= len(perHop) {
				perHop = append(perHop, 0)
			}
			perHop[d]++
			if int(d) > hp.MaxHops {
				hp.MaxHops = int(d)
			}
		}
	}
	scale := float64(n) / float64(len(sources))
	hp.Counts = make([]float64, len(perHop))
	var cum float64
	for h, c := range perHop {
		cum += c * scale
		hp.Counts[h] = cum
	}
	if len(hp.Counts) > 0 {
		plateau := hp.Counts[len(hp.Counts)-1]
		for h, c := range hp.Counts {
			if c >= 0.9*plateau {
				hp.EffectiveDiameter = h
				break
			}
		}
	}
	return hp
}

// randomHopGraph draws a sparse graph of n nodes whose last `isolated`
// nodes have no edges; with split set, edges stay inside two halves of
// the rest, so the graph is disconnected.
func randomHopGraph(rng *rand.Rand, n int, directed, split bool, isolated int) *graph.Graph {
	g := graph.NewWithNodes(n, directed)
	live := n - isolated
	for i := 0; i < 2*live; i++ {
		u, v := rng.Intn(live), rng.Intn(live)
		if split && (u < live/2) != (v < live/2) {
			continue
		}
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	return g
}

func TestHopPlotAndDiameterMatchPerSourceBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		g := randomHopGraph(rng, n, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(n/4+1))
		adj := graph.ToCSR(g)
		for _, samples := range []int{0, 1 + rng.Intn(n), n + 3} {
			seed := rng.Int63()
			got := ComputeHopPlot(adj, samples, newRand(seed))
			want := refHopPlot(g, samples, newRand(seed))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, directed=%v, samples=%d): hop plot\n got %+v\nwant %+v",
					trial, n, g.Directed(), samples, got, want)
			}
		}
	}
	empty := graph.New(false)
	if hp := ComputeHopPlot(graph.ToCSR(empty), 0, newRand(1)); !reflect.DeepEqual(hp, refHopPlot(empty, 0, newRand(1))) {
		t.Fatalf("empty graph hop plot %+v", hp)
	}
}

// ring returns an n-cycle as a CSR: every BFS source sees the same
// farthest distance, so the per-hop histogram grows the same way from any
// source.
func ring(n int) *graph.CSR {
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
	}
	return graph.ToCSR(g)
}

func TestHopPlotAllocsIndependentOfSources(t *testing.T) {
	g := ring(400)
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() { ComputeHopPlot(g, samples, newRand(1)) })
	}
	few, many := allocs(4), allocs(300)
	if many != few {
		t.Fatalf("ComputeHopPlot allocs: %v with 4 sources, %v with 300; want equal", few, many)
	}
	exact := testing.AllocsPerRun(5, func() { ComputeHopPlot(g, 0, newRand(1)) })
	if exact > few {
		t.Fatalf("ComputeHopPlot allocs over all 400 sources %v, above %v with 4", exact, few)
	}
}
