package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// heavyEdgeMatch computes a matching of c's nodes preferring the heaviest
// incident edge, visiting nodes in random order (Karypis–Kumar HEM).
// match[u] == u means u is unmatched (matched with itself).
func heavyEdgeMatch(c *graph.CSR, rng *rand.Rand) []int32 {
	n := c.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		bw := -1.0
		nbrs, ws := c.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if int32(v) != u && match[v] < 0 && ws[i] > bw {
				best, bw = int32(v), ws[i]
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u
		}
	}
	return match
}

// contract builds the coarse graph implied by a matching. Returns the
// coarse CSR and cmap mapping each fine node to its coarse node. Coarse
// node weights are the sums of their constituents; parallel coarse edges
// are merged by weight summation; coarse self-loops (edges internal to a
// matched pair) are dropped, since they can never be cut.
func contract(c *graph.CSR, match []int32) (*graph.CSR, []int32) {
	n := c.N()
	cmap := make([]int32, n)
	var cn int32
	for u := 0; u < n; u++ {
		if int32(u) <= match[u] {
			cmap[u] = cn
			if match[u] != int32(u) {
				cmap[match[u]] = cn
			}
			cn++
		}
	}
	coarse := &graph.CSR{
		NumNodes: int(cn),
		Xadj:     make([]int32, cn+1),
		NodeW:    make([]int32, cn),
	}
	for u := 0; u < n; u++ {
		coarse.NodeW[cmap[u]] += c.NodeW[u]
	}
	// Accumulate coarse adjacency with a dense scratch map reset per node.
	// The fine half-edge count bounds the coarse one, so the lists never
	// regrow.
	pos := make([]int32, cn) // coarse neighbor -> index+1 in current list
	adj := make([]graph.NodeID, 0, len(c.Adjncy))
	wts := make([]float64, 0, len(c.Adjncy))
	touch := make([]int32, 0, 64)
	appendNode := func(cu int32, fineNodes ...int32) {
		start := len(adj)
		for _, fu := range fineNodes {
			nbrs, ws := c.Neighbors(graph.NodeID(fu))
			for i, v := range nbrs {
				cv := cmap[v]
				if cv == cu {
					continue // internal edge -> coarse self-loop, dropped
				}
				if p := pos[cv]; p > 0 {
					wts[start+int(p)-1] += ws[i]
				} else {
					adj = append(adj, graph.NodeID(cv))
					wts = append(wts, ws[i])
					pos[cv] = int32(len(adj) - start)
					touch = append(touch, cv)
				}
			}
		}
		for _, t := range touch {
			pos[t] = 0
		}
		touch = touch[:0]
		coarse.Xadj[cu+1] = int32(len(adj))
	}
	for u := 0; u < n; u++ {
		if int32(u) > match[u] {
			continue
		}
		cu := cmap[u]
		if match[u] == int32(u) {
			appendNode(cu, int32(u))
		} else {
			appendNode(cu, int32(u), match[u])
		}
	}
	coarse.Adjncy = adj
	coarse.EdgeW = wts
	return coarse, cmap
}

// coarsenLevel pairs a CSR with the mapping from the next-finer level.
type coarsenLevel struct {
	csr  *graph.CSR
	cmap []int32 // fine id -> this level's id (nil for the finest level)
}

// coarsen builds the multilevel hierarchy, finest first. Stops when the
// graph has at most coarsenTo nodes or shrinkage stalls (< 10% reduction).
func coarsen(c *graph.CSR, coarsenTo int, rng *rand.Rand) []coarsenLevel {
	levels := []coarsenLevel{{csr: c}}
	cur := c
	for cur.N() > coarsenTo {
		match := heavyEdgeMatch(cur, rng)
		next, cmap := contract(cur, match)
		if float64(next.N()) > 0.9*float64(cur.N()) {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		levels = append(levels, coarsenLevel{csr: next, cmap: cmap})
		cur = next
	}
	return levels
}
