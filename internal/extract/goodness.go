package extract

import (
	"sort"

	"repro/internal/graph"
)

// CombineMode selects how per-source RWR scores merge into the goodness
// score of a node.
type CombineMode int

const (
	// CombineAND scores a node by the probability that all source
	// particles meet there: the product of the per-source RWR scores.
	// This is the paper's "steady-meeting probability".
	CombineAND CombineMode = iota
	// CombineOR scores a node by the probability that at least one
	// particle visits: 1 - Π(1 - rᵢ).
	CombineOR
	// CombineKSoftAND scores a node by the product of its K highest
	// per-source scores — "at least K of the m particles meet here" — the
	// softened multi-source semantics of the center-piece formulation.
	CombineKSoftAND
)

// Goodness combines the per-source RWR vectors into one score per node.
// k is only used by CombineKSoftAND (clamped to [1,len(rwr)]).
func Goodness(rwr [][]float64, mode CombineMode, k int) []float64 {
	if len(rwr) == 0 {
		return nil
	}
	n := len(rwr[0])
	out := make([]float64, n)
	switch mode {
	case CombineOR:
		for v := 0; v < n; v++ {
			p := 1.0
			for _, r := range rwr {
				p *= 1 - r[v]
			}
			out[v] = 1 - p
		}
	case CombineKSoftAND:
		if k < 1 {
			k = 1
		}
		if k > len(rwr) {
			k = len(rwr)
		}
		scores := make([]float64, len(rwr))
		for v := 0; v < n; v++ {
			for i, r := range rwr {
				scores[i] = r[v]
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
			p := 1.0
			for i := 0; i < k; i++ {
				p *= scores[i]
			}
			out[v] = p
		}
	default: // CombineAND
		for v := 0; v < n; v++ {
			p := 1.0
			for _, r := range rwr {
				p *= r[v]
			}
			out[v] = p
		}
	}
	return out
}

// destQueue yields extraction destinations in exactly the order the naive
// per-iteration argmax scan over all n nodes would: goodness descending,
// node id ascending among ties, strictly positive goodness only. Instead
// of rescanning O(n) per destination it selects the top `budget`
// candidates once with a bounded min-heap (O(n log budget)) and then walks
// them — the ROADMAP's "top-k pruned goodness".
//
// Why top-budget suffices: a destination is always the best-scored node
// outside the growing output set H, and the extraction loop only requests
// a destination while |H| < budget. Fewer than budget nodes can therefore
// outrank the scan's pick, so the pick always lies within the top budget
// entries of the (goodness desc, id asc) order. Exhausting the queue
// implies every candidate is in H, i.e. |H| >= budget, so the loop has
// terminated — identical to the naive scan finding no positive node.
type destQueue struct {
	cand []graph.NodeID // candidates, best first
	next int
}

// newDestQueue selects the top-budget positive-goodness nodes.
func newDestQueue(goodness []float64, budget int) *destQueue {
	if budget > len(goodness) {
		budget = len(goodness)
	}
	// Bounded min-heap rooted at the worst kept candidate; "worse" is
	// (goodness asc, id desc), the exact inverse of the emission order.
	worse := func(a, b graph.NodeID) bool {
		if goodness[a] != goodness[b] {
			return goodness[a] < goodness[b]
		}
		return a > b
	}
	h := make([]graph.NodeID, 0, budget)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			w := i
			if l < len(h) && worse(h[l], h[w]) {
				w = l
			}
			if r < len(h) && worse(h[r], h[w]) {
				w = r
			}
			if w == i {
				return
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for v := range goodness {
		if !(goodness[v] > 0) { // also drops NaN, like the naive scan
			continue
		}
		id := graph.NodeID(v)
		switch {
		case len(h) < budget:
			h = append(h, id)
			up(len(h) - 1)
		case worse(h[0], id):
			h[0] = id
			down(0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return worse(h[j], h[i]) })
	return &destQueue{cand: h}
}

// nextDest returns the best candidate not yet in H, or -1 when none
// remains. The cursor only moves forward: a returned destination is never
// reconsidered (matching the naive scan, which zeroes its goodness), and a
// candidate skipped because it entered H stays skipped (H never shrinks).
func (q *destQueue) nextDest(inH []bool) graph.NodeID {
	for q.next < len(q.cand) {
		v := q.cand[q.next]
		q.next++
		if !inH[v] {
			return v
		}
	}
	return -1
}
