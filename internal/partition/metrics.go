package partition

import (
	"fmt"

	"repro/internal/graph"
)

// EdgeCut returns the total weight of logical edges whose endpoints lie in
// different parts.
func EdgeCut(g *graph.Graph, parts []int32) float64 {
	var cut float64
	g.Edges(func(u, v graph.NodeID, w float64) bool {
		if parts[u] != parts[v] {
			cut += w
		}
		return true
	})
	return cut
}

// CutEdgeCount returns the number of logical edges crossing parts
// (unweighted count).
func CutEdgeCount(g *graph.Graph, parts []int32) int {
	cnt := 0
	g.Edges(func(u, v graph.NodeID, w float64) bool {
		if parts[u] != parts[v] {
			cnt++
		}
		return true
	})
	return cnt
}

// Imbalance returns max part size over the ideal size n/k. 1.0 is perfect
// balance; for an empty partitioning it returns 0.
func Imbalance(parts []int32, k int) float64 {
	n := len(parts)
	if n == 0 || k == 0 {
		return 0
	}
	sizes := make([]int, k)
	for _, p := range parts {
		sizes[p]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return float64(max) * float64(k) / float64(n)
}

// Validate checks that every node is assigned a part in [0,k).
func Validate(parts []int32, k int) error {
	for u, p := range parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("partition: node %d assigned part %d, want [0,%d)", u, p, k)
		}
	}
	return nil
}
