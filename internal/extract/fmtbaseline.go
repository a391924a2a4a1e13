package extract

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// This file implements the pairwise connection-subgraph baseline of
// Faloutsos, McCurley and Tomkins (KDD'04), cited as [1] by the paper:
// the graph is treated as an electrical network, a unit voltage is applied
// between the two query nodes, and a small "display subgraph" is grown by
// repeatedly adding the end-to-end path that delivers the most current per
// node added. GMine's multi-source extractor is compared against it in E9
// (m sources need m(m-1)/2 pairwise runs whose union is then trimmed).

// PairwiseOptions tunes the electrical baseline.
type PairwiseOptions struct {
	// Budget is the maximum number of output nodes.
	Budget int
	// Iterations bounds the Gauss–Seidel voltage solve (default 200).
	Iterations int
	// Tolerance stops the solve when the max voltage change drops below
	// it (default 1e-9).
	Tolerance float64
	// MaxPaths bounds how many delivery paths are extracted (default 50).
	MaxPaths int
}

func (o PairwiseOptions) withDefaults() PairwiseOptions {
	if o.Budget <= 0 {
		o.Budget = 30
	}
	if o.Iterations <= 0 {
		o.Iterations = 200
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxPaths <= 0 {
		o.MaxPaths = 50
	}
	return o
}

// PairwiseResult is the output of the electrical baseline. Subgraph is
// set on MultiSourceViaPairwise's result only.
type PairwiseResult struct {
	Subgraph *graph.Graph
	Nodes    []graph.NodeID
	// Voltages of the chosen nodes (local ids).
	Voltages []float64
	// DeliveredCurrent is the total current the extracted paths carry.
	DeliveredCurrent float64
}

// pairwiseNodes runs the delivered-current heuristic between exactly two
// nodes. It returns the chosen nodes, endpoints first, without a
// subgraph: MultiSourceViaPairwise induces one over the pooled nodes.
func pairwiseNodes(g *graph.Graph, s, t graph.NodeID, opts PairwiseOptions) (*PairwiseResult, error) {
	if err := g.CheckNode(s); err != nil {
		return nil, err
	}
	if err := g.CheckNode(t); err != nil {
		return nil, err
	}
	if s == t {
		return nil, fmt.Errorf("extract: pairwise query needs distinct nodes")
	}
	opts = opts.withDefaults()
	volt := solveVoltages(g, s, t, opts)
	// Greedily peel off max-current downhill paths from s to t.
	used := map[graph.NodeID]bool{s: true, t: true}
	order := []graph.NodeID{s, t}
	residual := map[[2]graph.NodeID]float64{}
	current := func(u, v graph.NodeID, w float64) float64 {
		i := w * (volt[u] - volt[v])
		if r, ok := residual[[2]graph.NodeID{u, v}]; ok {
			i = r
		}
		return i
	}
	var delivered float64
	for p := 0; p < opts.MaxPaths && len(order) < opts.Budget; p++ {
		path, bottleneck := maxCurrentPath(g, s, t, volt, current)
		if len(path) == 0 || bottleneck <= 0 {
			break
		}
		delivered += bottleneck
		for i := 0; i+1 < len(path); i++ {
			u, v := path[i], path[i+1]
			key := [2]graph.NodeID{u, v}
			residual[key] = current(u, v, g.EdgeWeight(u, v)) - bottleneck
		}
		for _, u := range path {
			if !used[u] {
				if len(order) >= opts.Budget {
					break
				}
				used[u] = true
				order = append(order, u)
			}
		}
	}
	res := &PairwiseResult{Nodes: order, DeliveredCurrent: delivered, Voltages: make([]float64, len(order))}
	for i, u := range order {
		res.Voltages[i] = volt[u]
	}
	return res, nil
}

// solveVoltages fixes V(s)=1, V(t)=0 and relaxes every other node to the
// weighted average of its neighbors (Gauss–Seidel on the Laplacian).
func solveVoltages(g *graph.Graph, s, t graph.NodeID, opts PairwiseOptions) []float64 {
	n := g.NumNodes()
	volt := make([]float64, n)
	volt[s] = 1
	for iter := 0; iter < opts.Iterations; iter++ {
		var maxDelta float64
		for u := 0; u < n; u++ {
			uu := graph.NodeID(u)
			if uu == s || uu == t {
				continue
			}
			var num, den float64
			for _, e := range g.Neighbors(uu) {
				num += e.Weight * volt[e.To]
				den += e.Weight
			}
			if den == 0 {
				continue
			}
			nv := num / den
			if d := math.Abs(nv - volt[u]); d > maxDelta {
				maxDelta = d
			}
			volt[u] = nv
		}
		if maxDelta < opts.Tolerance {
			break
		}
	}
	return volt
}

// maxCurrentPath follows strictly decreasing voltages from s to t, greedily
// taking the highest-current outgoing edge (widest-path on current via a
// simple greedy walk). Returns the path and its bottleneck current.
func maxCurrentPath(g *graph.Graph, s, t graph.NodeID, volt []float64,
	current func(u, v graph.NodeID, w float64) float64) ([]graph.NodeID, float64) {
	path := []graph.NodeID{s}
	bottleneck := math.Inf(1)
	u := s
	visited := map[graph.NodeID]bool{s: true}
	for u != t {
		var best graph.NodeID = -1
		bestI := 0.0
		for _, e := range g.Neighbors(u) {
			if visited[e.To] || volt[e.To] >= volt[u] && e.To != t {
				continue
			}
			if i := current(u, e.To, e.Weight); i > bestI {
				bestI = i
				best = e.To
			}
		}
		if best < 0 {
			return nil, 0 // dead end
		}
		if bestI < bottleneck {
			bottleneck = bestI
		}
		u = best
		visited[u] = true
		path = append(path, u)
		if len(path) > g.NumNodes() {
			return nil, 0
		}
	}
	return path, bottleneck
}

// MultiSourceViaPairwise answers an m-source query with the pairwise
// baseline: run every pair, pool the nodes by total delivered-current
// involvement, and keep the best within budget. This is the workflow the
// paper's multi-source algorithm renders unnecessary.
func MultiSourceViaPairwise(g *graph.Graph, sources []graph.NodeID, opts PairwiseOptions) (*PairwiseResult, int, error) {
	opts = opts.withDefaults()
	if len(sources) < 2 {
		return nil, 0, fmt.Errorf("extract: pairwise baseline needs >= 2 sources")
	}
	type scored struct {
		node  graph.NodeID
		score float64
	}
	total := map[graph.NodeID]float64{}
	runs := 0
	var delivered float64
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			res, err := pairwiseNodes(g, sources[i], sources[j], opts)
			if err != nil {
				return nil, runs, err
			}
			runs++
			delivered += res.DeliveredCurrent
			for li, u := range res.Nodes {
				// Participation score: voltage distance from the
				// endpoints, favoring genuinely intermediate nodes.
				v := res.Voltages[li]
				total[u] += 1 + v*(1-v)
			}
		}
	}
	var pool []scored
	srcSet := map[graph.NodeID]bool{}
	for _, s := range sources {
		srcSet[s] = true
	}
	for u, sc := range total {
		if !srcSet[u] {
			pool = append(pool, scored{u, sc})
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].score != pool[j].score {
			return pool[i].score > pool[j].score
		}
		return pool[i].node < pool[j].node
	})
	order := append([]graph.NodeID(nil), sources...)
	for _, sc := range pool {
		if len(order) >= opts.Budget {
			break
		}
		order = append(order, sc.node)
	}
	sub, mapping := graph.Induced(graph.ToCSR(g), g.Directed(), g.Label, order)
	return &PairwiseResult{Subgraph: sub, Nodes: mapping, DeliveredCurrent: delivered}, runs, nil
}
