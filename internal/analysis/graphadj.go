package analysis

import (
	"math"

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
// from the same ids-only neighbor pass, so a disk-backed graph is paged
// through the buffer pool once, not once per metric. Results are
// deterministic and identical across Adjacency implementations of the
// same graph. Equivalent to ReportAdjSharded with the auto shard count.
func ReportAdj(adj graph.Adjacency, directed bool) AdjacencyReport {
	return ReportAdjSharded(adj, directed, 0)
}

// ReportAdjSharded is ReportAdj with an explicit sweep shard count (0 =
// auto-GOMAXPROCS gated by graph.MinAutoShardEdges, 1 = serial, >= 2 =
// exact). Every metric in the report is a sum, extremum or set-union —
// order-independent integer state — so the sharded pass merges per-shard
// locals into literally identical results; sharding is an execution knob
// only.
func ReportAdjSharded(adj graph.Adjacency, directed bool, shards int) AdjacencyReport {
	n := adj.N()
	rep := AdjacencyReport{
		Nodes:     n,
		HalfEdges: adj.HalfEdges(),
		Degree:    DegreeStats{Histogram: map[int]int{}, PowerLawExponent: math.NaN()},
	}
	if n == 0 {
		return rep
	}
	if k := graph.EffectiveSweepShards(adj, shards); k > 1 {
		if sv, ok := adj.(graph.SweepShardViewer); ok {
			if ranges := graph.ShardRanges(adj, k); len(ranges) > 1 {
				if reportSharded(&rep, sv, directed, ranges) {
					return rep
				}
			}
		}
	}

	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}

	rep.Degree.Min = math.MaxInt
	total := 0
	// The structure sweep needs only the neighbor ids; the ids-only paths
	// keep a paged sweep from reading (and evicting id pages for) the
	// EdgeW run it would never look at. When the backend can sweep its
	// own storage in page order (graph.NeighborIDSweeper) the whole pass
	// costs the buffer pool O(filePages) round-trips instead of O(n);
	// visit order and rows are identical either way.
	visit := func(u graph.NodeID, nbrs []graph.NodeID) bool {
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
			if ra, rb := find(int32(u)), find(int32(v)); ra != rb {
				parent[ra] = rb
			}
		}
		return true
	}
	if sweeper, ok := adj.(graph.NeighborIDSweeper); ok {
		// A sweep error means a paged backend faulted; it has latched the
		// fault on its epoch, which the engine-level bracket fails the
		// query on — the partial report never escapes.
		_ = sweeper.SweepNeighborIDs(0, graph.NodeID(n), visit)
	} else {
		cur := adj.Cursor()
		var nbrs []graph.NodeID
		for u := 0; u < n; u++ {
			nbrs = cur.NeighborIDs(graph.NodeID(u), nbrs[:0])
			visit(graph.NodeID(u), nbrs)
		}
		cur.Close()
	}
	rep.Degree.Mean = float64(total) / float64(n)
	rep.Degree.PowerLawExponent = fitPowerLaw(rep.Degree.Histogram)

	if directed {
		rep.Edges = rep.HalfEdges
	} else {
		// Undirected adjacencies store both half-edges except for
		// self-loops, which appear once.
		rep.Edges = (rep.HalfEdges + rep.SelfLoops) / 2
	}

	sizes := map[int32]int{}
	for u := 0; u < n; u++ {
		sizes[find(int32(u))]++
	}
	rep.WeakComponents = len(sizes)
	for _, s := range sizes {
		if s > rep.LargestComponent {
			rep.LargestComponent = s
		}
	}
	return rep
}

// ufFind is path-halving find on a plain parent array.
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// shardReportState is one shard's private slice of the report sweep:
// histogram, extrema, counters and a full-width local union-find. Nothing
// here is shared, so the shard loop runs lock-free; every field merges
// order-independently (sums, extrema, union of equivalence relations),
// which is what keeps the sharded report literally identical to the
// serial one.
type shardReportState struct {
	hist      map[int]int
	min, max  int
	total     int
	selfLoops int
	parent    []int32
}

// reportSharded runs the ids-only report sweep range-sharded across
// goroutines and merges the per-shard locals into rep, returning false
// (rep untouched) if the backend cannot hand out shard views. A sweep
// fault leaves a partial report exactly like the serial path: the paged
// backend has latched the fault on its epoch and the engine-level bracket
// discards the result.
func reportSharded(rep *AdjacencyReport, sv graph.SweepShardViewer, directed bool, ranges []graph.ShardRange) bool {
	views, release, err := sv.SweepShardViews(len(ranges))
	if err != nil {
		return false
	}
	defer release()
	idViews := make([]graph.NeighborIDSweeper, len(views))
	for i, v := range views {
		s, ok := v.(graph.NeighborIDSweeper)
		if !ok {
			return false
		}
		idViews[i] = s
	}
	n := rep.Nodes
	locals := make([]shardReportState, len(ranges))
	for i := range locals {
		locals[i] = shardReportState{hist: map[int]int{}, min: math.MaxInt}
		locals[i].parent = make([]int32, n)
		for x := range locals[i].parent {
			locals[i].parent[x] = int32(x)
		}
	}
	_ = graph.ParallelSweepNeighborIDs(idViews, ranges, func(shard int, u graph.NodeID, nbrs []graph.NodeID) bool {
		l := &locals[shard]
		d := len(nbrs)
		l.hist[d]++
		l.total += d
		if d < l.min {
			l.min = d
		}
		if d > l.max {
			l.max = d
		}
		for _, v := range nbrs {
			if v == u {
				l.selfLoops++
			}
			if ra, rb := ufFind(l.parent, int32(u)), ufFind(l.parent, int32(v)); ra != rb {
				l.parent[ra] = rb
			}
		}
		return true
	})
	rep.Degree.Min = math.MaxInt
	parent := make([]int32, n)
	for x := range parent {
		parent[x] = int32(x)
	}
	for i := range locals {
		l := &locals[i]
		for d, c := range l.hist {
			rep.Degree.Histogram[d] += c
		}
		rep.Degree.Min = min(rep.Degree.Min, l.min)
		rep.Degree.Max = max(rep.Degree.Max, l.max)
		rep.SelfLoops += l.selfLoops
		// Union the shard's equivalence relation into the global one: the
		// connected-components partition is the transitive closure of the
		// shards' edge sets, independent of merge order.
		for x := 0; x < n; x++ {
			r := ufFind(l.parent, int32(x))
			if r == int32(x) {
				continue
			}
			if ra, rb := ufFind(parent, int32(x)), ufFind(parent, r); ra != rb {
				parent[ra] = rb
			}
		}
		rep.Degree.Mean += float64(l.total)
	}
	rep.Degree.Mean /= float64(n)
	rep.Degree.PowerLawExponent = fitPowerLaw(rep.Degree.Histogram)
	if directed {
		rep.Edges = rep.HalfEdges
	} else {
		rep.Edges = (rep.HalfEdges + rep.SelfLoops) / 2
	}
	sizes := map[int32]int{}
	for u := 0; u < n; u++ {
		sizes[ufFind(parent, int32(u))]++
	}
	rep.WeakComponents = len(sizes)
	for _, s := range sizes {
		if s > rep.LargestComponent {
			rep.LargestComponent = s
		}
	}
	return true
}
