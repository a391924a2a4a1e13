// Package partition implements graph partitioning for GMine's hierarchy
// construction. The primary algorithm is a multilevel k-way partitioner in
// the style of Karypis–Kumar (METIS): heavy-edge-matching coarsening, greedy
// graph-growing initial bisection, Fiduccia–Mattheyses boundary refinement,
// and recursive bisection for general k. Random and BFS region-growing
// partitioners are provided as the baselines used in the experiment suite.
//
// The paper partitions DBLP with METIS ("however any partitioning
// methodology fits our system"); this package is the from-scratch substrate
// standing in for it.
package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Method selects the partitioning algorithm.
type Method int

const (
	// Multilevel is the METIS-style multilevel k-way partitioner (default).
	Multilevel Method = iota
	// BFSGrow grows parts by breadth-first region growing (baseline).
	BFSGrow
	// Random assigns nodes to parts uniformly at random, balanced (baseline).
	Random
)

// Options configures Partition.
type Options struct {
	// K is the number of parts; must be >= 1.
	K int
	// Method selects the algorithm; default Multilevel.
	Method Method
	// Seed drives all randomized choices; the same seed gives the same
	// partitioning.
	Seed int64
	// FMPasses is the number of refinement passes applied per uncoarsening
	// level. Zero means the default of 4. Negative disables refinement
	// (used by the ablation benches).
	FMPasses int
	// KWayRefine enables a direct k-way greedy boundary refinement pass
	// after recursive bisection, recovering cut the independent
	// bisections cannot see across their boundaries.
	KWayRefine bool
}

// Fixed multilevel knobs. imbalance is the allowed ratio of a side's
// weight to its target weight in each bisection; recursive bisection
// compounds it, so the heaviest part may reach imbalance^ceil(log2 K)
// times the ideal part weight (1.33 at K = 5; 1.13-1.22 measured).
// Coarsening stops once the coarse graph has at most max(coarsenTo, 4·K)
// nodes, and the initial greedy bisection tries growTries random seeds.
const (
	imbalance = 1.10
	coarsenTo = 120
	growTries = 8
)

func (o Options) withDefaults() Options {
	if o.FMPasses == 0 {
		o.FMPasses = 4
	}
	if o.FMPasses < 0 {
		o.FMPasses = 0
	}
	return o
}

// Result holds a partitioning of a graph into K parts.
type Result struct {
	// Parts[u] is the part (0..K-1) of node u.
	Parts []int32
	// K is the number of parts requested (some may be empty for tiny graphs).
	K int
	// Cut is the total weight of edges crossing parts.
	Cut float64
}

// Partition splits g into opts.K parts. The graph is treated as undirected
// for cut purposes: the multilevel method partitions a directed graph's
// symmetrized form, every arc u->v standing as an edge {u,v}.
func Partition(g *graph.Graph, opts Options) (*Result, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("partition: K=%d, want >= 1", opts.K)
	}
	opts = opts.withDefaults()
	n := g.NumNodes()
	parts := make([]int32, n)
	if opts.K == 1 || n == 0 {
		return &Result{Parts: parts, K: opts.K, Cut: 0}, nil
	}
	if n <= opts.K {
		for i := range parts {
			parts[i] = int32(i)
		}
		return &Result{Parts: parts, K: opts.K, Cut: EdgeCut(g, parts)}, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	switch opts.Method {
	case Multilevel:
		c := graph.ToCSR(undirected(g))
		assignRecursive(c, identity(n), opts.K, 0, parts, opts, rng)
		if opts.KWayRefine && opts.K > 1 {
			kwayRefine(c, parts, opts.K, imbalance, opts.FMPasses)
		}
	case BFSGrow:
		bfsPartition(g, opts.K, parts, rng)
	case Random:
		randomPartition(n, opts.K, parts, rng)
	default:
		return nil, fmt.Errorf("partition: unknown method %v", opts.Method)
	}
	return &Result{Parts: parts, K: opts.K, Cut: EdgeCut(g, parts)}, nil
}

// undirected returns g itself if it is undirected, else a copy in which
// every arc u->v is an edge {u,v} (opposite arcs stay two parallel edges).
// Coarsening, the cut and FM's incremental gains all assume that v is in
// u's row exactly when u is in v's, with the same weight.
func undirected(g *graph.Graph) *graph.Graph {
	if !g.Directed() {
		return g
	}
	und := graph.NewWithNodes(g.NumNodes(), false)
	g.Edges(func(u, v graph.NodeID, w float64) bool {
		und.AddEdge(u, v, w)
		return true
	})
	return und
}

func identity(n int) []graph.NodeID {
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	return ids
}

// assignRecursive bisects c and recurses until k parts are produced,
// writing part ids (offset..offset+k-1) into parts via orig (the mapping
// from c's local ids to original graph ids).
func assignRecursive(c *graph.CSR, orig []graph.NodeID, k, offset int, parts []int32, opts Options, rng *rand.Rand) {
	if k == 1 || c.N() == 0 {
		for _, o := range orig {
			parts[o] = int32(offset)
		}
		return
	}
	k0 := k / 2
	k1 := k - k0
	frac := float64(k0) / float64(k)
	side := multilevelBisect(c, frac, opts, rng)
	c0, o0, c1, o1 := splitCSR(c, side, orig)
	assignRecursive(c0, o0, k0, offset, parts, opts, rng)
	assignRecursive(c1, o1, k1, offset+k0, parts, opts, rng)
}

// splitCSR extracts the two sides of a bisection as independent CSRs with
// mappings back to original node ids. Cross edges are dropped.
func splitCSR(c *graph.CSR, side []int8, orig []graph.NodeID) (*graph.CSR, []graph.NodeID, *graph.CSR, []graph.NodeID) {
	n := c.N()
	local := make([]int32, n)
	var n0, n1 int32
	for u := 0; u < n; u++ {
		if side[u] == 0 {
			local[u] = n0
			n0++
		} else {
			local[u] = n1
			n1++
		}
	}
	o0 := make([]graph.NodeID, n0)
	o1 := make([]graph.NodeID, n1)
	c0 := &graph.CSR{NumNodes: int(n0), Xadj: make([]int32, n0+1), NodeW: make([]int32, n0)}
	c1 := &graph.CSR{NumNodes: int(n1), Xadj: make([]int32, n1+1), NodeW: make([]int32, n1)}
	for u := 0; u < n; u++ {
		if side[u] == 0 {
			o0[local[u]] = orig[u]
			c0.NodeW[local[u]] = c.NodeW[u]
		} else {
			o1[local[u]] = orig[u]
			c1.NodeW[local[u]] = c.NodeW[u]
		}
	}
	// Two passes per side: count then fill.
	for u := 0; u < n; u++ {
		nbrs, _ := c.Neighbors(graph.NodeID(u))
		cnt := int32(0)
		for _, v := range nbrs {
			if side[v] == side[u] {
				cnt++
			}
		}
		if side[u] == 0 {
			c0.Xadj[local[u]+1] = cnt
		} else {
			c1.Xadj[local[u]+1] = cnt
		}
	}
	for i := 1; i <= int(n0); i++ {
		c0.Xadj[i] += c0.Xadj[i-1]
	}
	for i := 1; i <= int(n1); i++ {
		c1.Xadj[i] += c1.Xadj[i-1]
	}
	c0.Adjncy = make([]graph.NodeID, c0.Xadj[n0])
	c0.EdgeW = make([]float64, c0.Xadj[n0])
	c1.Adjncy = make([]graph.NodeID, c1.Xadj[n1])
	c1.EdgeW = make([]float64, c1.Xadj[n1])
	fill0 := make([]int32, n0)
	fill1 := make([]int32, n1)
	for u := 0; u < n; u++ {
		nbrs, ws := c.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if side[v] != side[u] {
				continue
			}
			if side[u] == 0 {
				lu := local[u]
				pos := c0.Xadj[lu] + fill0[lu]
				c0.Adjncy[pos] = local[v]
				c0.EdgeW[pos] = ws[i]
				fill0[lu]++
			} else {
				lu := local[u]
				pos := c1.Xadj[lu] + fill1[lu]
				c1.Adjncy[pos] = local[v]
				c1.EdgeW[pos] = ws[i]
				fill1[lu]++
			}
		}
	}
	return c0, o0, c1, o1
}
