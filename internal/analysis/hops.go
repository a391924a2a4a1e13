package analysis

import (
	"math/bits"
	"math/rand"

	"repro/internal/graph"
)

// hopBlock runs the BFSs of up to 64 sources at once, adding each hop's
// newly reached (source, node) pairs to perHop, which it returns grown to
// the farthest hop. Bit i of reach[v] says sources[i] has reached v. Each
// level ORs every frontier word into its out-neighbours' next words; the
// bits new to reach are the next frontier and that hop's pairs. reach,
// front and next (length n) are scratch.
//
//gmine:hotpath
func hopBlock(cur graph.RowCursor, sources []graph.NodeID, reach, front, next []uint64, perHop []float64) []float64 {
	clear(reach)
	for i, s := range sources {
		reach[s] |= 1 << i
	}
	copy(front, reach)
	for h, count := 0, len(sources); count > 0; h++ {
		if h == len(perHop) {
			perHop = append(perHop, 0)
		}
		perHop[h] += float64(count)
		clear(next)
		for u, f := range front {
			if f != 0 {
				for _, v := range cur.NeighborIDs(graph.NodeID(u)) {
					next[v] |= f
				}
			}
		}
		count = 0
		for v, x := range next {
			x &^= reach[v]
			front[v], reach[v] = x, reach[v]|x
			count += bits.OnesCount64(x)
		}
	}
	return perHop
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
// with rng (all nodes if samples <= 0 or >= n, when rng may be nil). This
// is GMine's "number of hops" metric.
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
	words := make([]uint64, 3*n)
	reach, front, next := words[:n:n], words[n:2*n:2*n], words[2*n:]
	cur := adj.Cursor()
	defer cur.Close()
	for rest := sources; len(rest) > 0; {
		block := rest[:min(64, len(rest))]
		rest = rest[len(block):]
		perHop = hopBlock(cur, block, reach, front, next, perHop)
	}
	hp.MaxHops = len(perHop) - 1
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
