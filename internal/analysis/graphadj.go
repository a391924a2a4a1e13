package analysis

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// AdjacencyReport bundles the whole-graph metrics computable from an
// Adjacency alone — the workload of the "Large Graph Analysis in the GMine
// System" follow-up, answered out of core when the adjacency is a paged
// CSR. PageRank is layered on top by core.Engine.AnalyzeGraph, which adds
// the paged fault discipline around the iteration.
type AdjacencyReport struct {
	// Nodes and HalfEdges are the adjacency's geometry; Edges is the
	// logical edge count implied by directedness (undirected adjacencies
	// store two half-edges per edge but self-loops only once).
	Nodes     int
	HalfEdges int
	Edges     int
	SelfLoops int
	// Degree summarizes the stored-degree distribution (out-degree for
	// directed graphs), with the deterministic power-law fit.
	Degree DegreeStats
	// WeakComponents counts connected components with edge direction
	// ignored; LargestComponent is the node count of the biggest one.
	WeakComponents   int
	LargestComponent int
}

// ReportAdj computes the whole-graph metric suite in ONE adjacency sweep:
// degree histogram, self-loop count and union-find connectivity all come
// from the same neighbor pass, so a disk-backed graph is paged
// through the buffer pool once, not once per metric. Results are
// deterministic and identical across Adjacency implementations of the
// same graph.
func ReportAdj(adj graph.Adjacency, directed bool) AdjacencyReport {
	n := adj.N()
	rep := AdjacencyReport{
		Nodes:     n,
		HalfEdges: adj.HalfEdges(),
		Degree:    DegreeStats{Histogram: map[int]int{}, PowerLawExponent: math.NaN()},
	}
	if n == 0 {
		return rep
	}

	uf := newUnionFind(n)
	rep.Degree.Min = math.MaxInt
	total := 0
	// The structure sweep looks at the neighbor ids only; the weights ride
	// along in the one sweep every whole-graph kernel uses.
	visit := func(u graph.NodeID, nbrs []graph.NodeID, _ []float64) bool {
		d := len(nbrs)
		rep.Degree.Histogram[d]++
		total += d
		if d < rep.Degree.Min {
			rep.Degree.Min = d
		}
		if d > rep.Degree.Max {
			rep.Degree.Max = d
		}
		for _, v := range nbrs {
			if v == u {
				rep.SelfLoops++
			}
			uf.union(int32(u), int32(v))
		}
		return true
	}
	// A sweep error means a paged backend faulted; it has latched the
	// fault on the query's view, which the engine-level bracket fails the
	// query on — the partial report never escapes.
	_ = adj.SweepEdges(0, graph.NodeID(n), visit)
	rep.Degree.Mean = float64(total) / float64(n)
	rep.Degree.PowerLawExponent = fitPowerLaw(rep.Degree.Histogram)

	if directed {
		rep.Edges = rep.HalfEdges
	} else {
		// Undirected adjacencies store both half-edges except for
		// self-loops, which appear once.
		rep.Edges = (rep.HalfEdges + rep.SelfLoops) / 2
	}

	sizes, count := uf.sizes()
	rep.WeakComponents, rep.LargestComponent = count, slices.Max(sizes)
	return rep
}

// ReportAdjSharded is ReportAdj with a shard count that is ignored. It
// stays because bench/layers calls it; deleting it is a [benchmark]
// change first.
func ReportAdjSharded(adj graph.Adjacency, directed bool, _ int) AdjacencyReport {
	return ReportAdj(adj, directed)
}
