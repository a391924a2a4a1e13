package analysis

import (
	"math/rand"

	"repro/internal/graph"
)

// BFSDistances returns the hop distance from src to every node (-1 for
// unreachable).
func BFSDistances(adj graph.Adjacency, src graph.NodeID) []int32 {
	n := adj.N()
	dist := make([]int32, n)
	cur := adj.Cursor()
	defer cur.Close()
	bfsInto(cur, src, dist, make([]graph.NodeID, n))
	return dist
}

// bfsInto fills dist (length n) with the hop distance from src to every
// node, -1 for unreachable, reading rows through cur. queue (length n) is
// scratch: every node is enqueued at most once, so a fixed array with
// head and tail indices holds the whole frontier. Callers running many
// BFSs reuse the cursor and both buffers.
//
//gmine:hotpath
func bfsInto(cur graph.RowCursor, src graph.NodeID, dist []int32, queue []graph.NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	for head, tail := 0, 1; head < tail; head++ {
		u := queue[head]
		for _, v := range cur.NeighborIDs(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue[tail] = v
				tail++
			}
		}
	}
}

// HopPlot holds N(h): the number of ordered reachable pairs within h hops,
// estimated from sampled BFS sources, plus the effective diameter.
type HopPlot struct {
	// Counts[h] estimates the number of ordered pairs (u,v) with
	// hop-distance <= h. Counts[0] = n (each node reaches itself).
	Counts []float64
	// EffectiveDiameter is the smallest h at which Counts[h] reaches 90%
	// of the plateau Counts[max].
	EffectiveDiameter int
	// MaxHops is the largest finite distance observed from the samples.
	MaxHops int
	Samples int
}

// ComputeHopPlot estimates the hop plot from `samples` BFS sources drawn
// with rng (all nodes if samples <= 0 or >= n). This is GMine's "number of
// hops" metric.
func ComputeHopPlot(adj graph.Adjacency, samples int, rng *rand.Rand) HopPlot {
	n := adj.N()
	hp := HopPlot{}
	if n == 0 {
		return hp
	}
	var sources []graph.NodeID
	if samples <= 0 || samples >= n {
		sources = make([]graph.NodeID, n)
		for i := range sources {
			sources[i] = graph.NodeID(i)
		}
	} else {
		sources = make([]graph.NodeID, 0, samples)
		for _, i := range rng.Perm(n)[:samples] {
			sources = append(sources, graph.NodeID(i))
		}
	}
	hp.Samples = len(sources)
	var perHop []float64 // perHop[h] = # sampled pairs at distance exactly h
	dist, queue := make([]int32, n), make([]graph.NodeID, n)
	cur := adj.Cursor()
	defer cur.Close()
	for _, s := range sources {
		bfsInto(cur, s, dist, queue)
		for _, d := range dist {
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

// Diameter returns the exact diameter of adj (longest shortest path over
// all reachable pairs) by running BFS from every node — intended for the
// community-sized subgraphs GMine inspects, not the full graph.
func Diameter(adj graph.Adjacency) int {
	n := adj.N()
	max := 0
	dist, queue := make([]int32, n), make([]graph.NodeID, n)
	cur := adj.Cursor()
	defer cur.Close()
	for u := 0; u < n; u++ {
		bfsInto(cur, graph.NodeID(u), dist, queue)
		for _, d := range dist {
			if int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}
