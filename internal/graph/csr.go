package graph

import (
	"fmt"
	"sync"
)

// CSR is a compressed-sparse-row view of a graph, the layout used by the
// partitioner and the random-walk kernels. For undirected graphs the
// structure stores both half-edges, exactly like the adjacency form.
//
// NodeW carries per-node integer weights used by the multilevel partitioner
// (a coarse node's weight is the number of original nodes it represents).
//
// A CSR is immutable once built, so a single instance may be shared freely
// across goroutines (the engine caches one per graph and every query kernel
// reads it concurrently). Do not copy a CSR by value: the lazily cached
// weighted-degree table carries a sync.Once.
type CSR struct {
	NumNodes int       // exposed as N() through the Adjacency interface
	Xadj     []int32   // len N+1; Adjncy[Xadj[u]:Xadj[u+1]] are u's neighbors
	Adjncy   []NodeID  // concatenated neighbor lists
	EdgeW    []float64 // parallel to Adjncy
	NodeW    []int32   // len N; defaults to all-ones

	wdegOnce sync.Once
	wdeg     []float64
}

// N returns the number of nodes (Adjacency).
func (c *CSR) N() int { return c.NumNodes }

// ToCSR converts g into CSR form. Adjacency order is preserved.
func ToCSR(g *Graph) *CSR {
	n := g.NumNodes()
	c := &CSR{
		NumNodes: n,
		Xadj:     make([]int32, n+1),
	}
	total := 0
	for u := 0; u < n; u++ {
		total += len(g.Neighbors(NodeID(u)))
	}
	c.Adjncy = make([]NodeID, 0, total)
	c.EdgeW = make([]float64, 0, total)
	c.NodeW = make([]int32, n)
	for u := 0; u < n; u++ {
		c.NodeW[u] = 1
		for _, e := range g.Neighbors(NodeID(u)) {
			c.Adjncy = append(c.Adjncy, e.To)
			c.EdgeW = append(c.EdgeW, e.Weight)
		}
		c.Xadj[u+1] = int32(len(c.Adjncy))
	}
	return c
}

// Neighbors returns the neighbor and weight slices of u, aliasing the
// CSR's storage. It is the partitioner's read path on its own coarse
// CSRs; Adjacency callers read through a Cursor or a sweep instead.
func (c *CSR) Neighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := c.Xadj[u], c.Xadj[u+1]
	return c.Adjncy[lo:hi], c.EdgeW[lo:hi]
}

// csrCursor is the CSR seen through RowCursor. It is the same memory under
// a second method set, so opening one allocates nothing and a read is one
// interface call straight into the row arrays — the local kernels' inner
// loop has no second dispatch to pay.
type csrCursor CSR

// Cursor opens a row cursor (Adjacency). Rows are read-only subslices of
// the CSR's own storage — a read never copies or allocates — with
// capacities clamped to the row, so an accidental append by a confused
// caller reallocates instead of scribbling over the next node's row.
// There is nothing to release.
func (c *CSR) Cursor() RowCursor { return (*csrCursor)(c) }

//gmine:hotpath
func (c *csrCursor) Neighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := c.Xadj[u], c.Xadj[u+1]
	return c.Adjncy[lo:hi:hi], c.EdgeW[lo:hi:hi]
}

//gmine:hotpath
func (c *csrCursor) NeighborIDs(u NodeID) []NodeID {
	lo, hi := c.Xadj[u], c.Xadj[u+1]
	return c.Adjncy[lo:hi:hi]
}

func (c *csrCursor) Close() {}

// SweepEdges emits every node in [lo,hi) with its neighbor row
// (EdgeSweeper). On the in-memory CSR the "blocked sweep" degenerates to
// a slice walk handing out cap-clamped aliases of internal storage — no
// copies, no allocations — so kernels run one code path on every backend.
//
//gmine:hotpath
func (c *CSR) SweepEdges(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID, w []float64) bool) error {
	if lo < 0 || hi < lo || int(hi) > c.NumNodes {
		return fmt.Errorf("graph: sweep range [%d,%d) out of bounds (n=%d)", lo, hi, c.NumNodes)
	}
	for u := lo; u < hi; u++ {
		a, b := c.Xadj[u], c.Xadj[u+1]
		if !fn(u, c.Adjncy[a:b:b], c.EdgeW[a:b:b]) {
			return nil
		}
	}
	return nil
}

// Degree returns the number of stored half-edges at u.
func (c *CSR) Degree(u NodeID) int { return int(c.Xadj[u+1] - c.Xadj[u]) }

// WeightedDegree returns the sum of edge weights at u.
func (c *CSR) WeightedDegree(u NodeID) float64 {
	var s float64
	lo, hi := c.Xadj[u], c.Xadj[u+1]
	for i := lo; i < hi; i++ {
		s += c.EdgeW[i]
	}
	return s
}

// WeightedDegrees returns the per-node weighted degree table, computing it
// on first use and caching it for the CSR's lifetime. The random-walk
// kernels call this on every query; on a store's resident CSR the O(E)
// pass happens once per promotion instead of once per request. Safe for
// concurrent use; callers must not mutate the returned slice.
func (c *CSR) WeightedDegrees() []float64 {
	c.wdegOnce.Do(func() {
		wdeg := make([]float64, c.N())
		for u := 0; u < c.N(); u++ {
			var s float64
			lo, hi := c.Xadj[u], c.Xadj[u+1]
			for i := lo; i < hi; i++ {
				s += c.EdgeW[i]
			}
			wdeg[u] = s
		}
		c.wdeg = wdeg
	})
	return c.wdeg
}

// TotalNodeWeight returns the sum of node weights.
func (c *CSR) TotalNodeWeight() int64 {
	var s int64
	for _, w := range c.NodeW {
		s += int64(w)
	}
	return s
}

// HalfEdges returns the number of stored half-edges.
func (c *CSR) HalfEdges() int { return len(c.Adjncy) }

// ToGraph converts the CSR back into an adjacency Graph with undirected
// semantics if undirected is true. For undirected conversion the CSR must
// store both half-edges (as produced by ToCSR); each pair is emitted once.
func (c *CSR) ToGraph(directed bool) *Graph {
	g := NewWithNodes(c.N(), directed)
	for u := 0; u < c.N(); u++ {
		lo, hi := c.Xadj[u], c.Xadj[u+1]
		for i := lo; i < hi; i++ {
			v := c.Adjncy[i]
			if !directed && v < NodeID(u) {
				continue
			}
			g.AddEdge(NodeID(u), v, c.EdgeW[i])
		}
	}
	return g
}
