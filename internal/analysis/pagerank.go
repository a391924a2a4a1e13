package analysis

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/extract"
	"repro/internal/graph"
)

// PageRankOptions tunes the power iteration.
type PageRankOptions struct {
	// Damping is the probability of following an edge (default 0.85).
	Damping float64
	// Epsilon is the L1 convergence threshold (default 1e-9).
	Epsilon float64
	// MaxIter caps the iterations (default 100).
	MaxIter int
	// Shards is accepted and ignored: every iteration is one serial sweep.
	// The field stays because bench/layers sets it; deleting it is a
	// [benchmark] change first.
	Shards int
	// Ctx optionally carries the caller's cancellation: the power iteration
	// polls it at every iteration boundary and stops early. PageRankAdj has
	// no error surface, so a cancelled solve returns nil — callers that
	// must tell why (core.Engine) check their context after the call.
	// nil = never cancelled.
	Ctx context.Context
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping <= 0 || o.Damping >= 1 {
		o.Damping = 0.85
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	return o
}

// PageRankAdj computes the PageRank vector over any Adjacency — an
// in-memory CSR, a store's resident tier or its paged CSR — weighting
// transitions by edge weight. PageRank is the random walk with restart
// whose restart set is every node, at restart probability 1 − Damping, so
// this is extract.RWRSet over all nodes: the same power-iteration body as
// extraction's walks. Dangling nodes redistribute uniformly, and the
// result sums to 1. It returns nil for an empty graph and when the solve
// stops early (cancelled, or a paged sweep failed). A paged adjacency
// cannot surface I/O faults through the Adjacency methods; callers running
// directly over one must check its fault latch (gtree.PagedCSR.Err) after
// the call, on a view no other reader shares (core.Engine's PageRank
// solves on the query's own view and does this — prefer it for
// disk-backed engines).
func PageRankAdj(c graph.Adjacency, opts PageRankOptions) []float64 {
	opts = opts.withDefaults()
	n := c.N()
	if n == 0 {
		return nil
	}
	every := make([]graph.NodeID, n)
	for i := range every {
		every[i] = graph.NodeID(i)
	}
	rank, err := extract.RWRSet(c, every, extract.RWROptions{
		Restart: 1 - opts.Damping, Epsilon: opts.Epsilon, MaxIter: opts.MaxIter, Ctx: opts.Ctx})
	if err != nil {
		return nil
	}
	return rank
}

// TopKByRank returns the k nodes with the highest scores (ties by id).
func TopKByRank(scores []float64, k int) []graph.NodeID {
	ids := make([]graph.NodeID, len(scores))
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// SubgraphReport bundles every metric GMine computes for a focused
// subgraph (paper §III.B): the whole-graph structure report, plus strong
// components, the exact or sampled hop plot's diameters and PageRank.
type SubgraphReport struct {
	AdjacencyReport
	StrongComponents  int
	EffectiveDiameter int
	MaxHops           int
	// TopRanked lists the ids of the 10 highest-PageRank nodes.
	TopRanked []graph.NodeID
	PageRank  []float64
}

// Report computes the full §III.B metric suite for a subgraph. hopSamples
// bounds the hop-plot BFS sources (<=0 = exact), drawn with seed only
// when they are fewer than g's nodes. It converts g to a CSR once and runs
// every metric over it.
func Report(g *graph.Graph, hopSamples int, seed int64) SubgraphReport {
	adj := graph.ToCSR(g)
	r := SubgraphReport{AdjacencyReport: ReportAdj(adj, g.Directed())}
	_, r.StrongComponents = StrongComponents(adj)
	var rng *rand.Rand // the exact hop plot draws no sources
	if hopSamples > 0 && hopSamples < adj.N() {
		rng = newRand(seed)
	}
	hp := ComputeHopPlot(adj, hopSamples, rng)
	r.EffectiveDiameter, r.MaxHops = hp.EffectiveDiameter, hp.MaxHops
	r.PageRank = PageRankAdj(adj, PageRankOptions{})
	r.TopRanked = TopKByRank(r.PageRank, 10)
	return r
}
