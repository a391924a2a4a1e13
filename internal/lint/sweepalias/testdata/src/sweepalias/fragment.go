package sweepalias

// Memory-backed sweeps (the hot/cold tiering idiom): a tiered adjacency
// with the graph resident serves rows as cap-clamped subslices of a
// long-lived in-memory CSR instead of recycled block buffers. The
// aliasing contract is deliberately unchanged — rows are valid only
// during the callback, because a budget cut can demote the CSR (and the
// next sweep pages into block buffers) — so retaining a memory-backed
// row header is the same bug and must be flagged the same way.
type tiered struct {
	fragIDs []NodeID
	fragWS  []float64
	pinned  [][]NodeID
}

func (t *tiered) SweepEdges(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID, w []float64) bool) error {
	for u := lo; u < hi; u++ {
		// Cap-clamped subslices: callees cannot append in place, but the
		// header still windows the resident array.
		if !fn(u, t.fragIDs[0:2:2], t.fragWS[0:2:2]) {
			return nil
		}
	}
	return nil
}

// fragmentViolations: retaining fragment-backed rows is flagged exactly
// like block-buffer rows — the analyzer keys on the sweep contract, not
// on where the backing array happens to live.
func fragmentViolations(t *tiered, ch chan []NodeID) {
	var hottest []NodeID
	_ = t.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
		hottest = nbrs                    // want `row slice assigned to captured variable hottest`
		t.pinned = append(t.pinned, nbrs) // want `row slice stored through t\.pinned`
		ch <- nbrs                        // want `row slice sent on a channel`
		return true
	})
	_ = hottest
}

// fragmentCompliant: the copy-out patterns every kernel uses stay quiet on
// fragment-backed rows too — element copies and scalar accumulation.
func fragmentCompliant(t *tiered, next []float64) {
	var sum float64
	dst := make([]NodeID, 0, 64)
	_ = t.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
		for i, v := range nbrs {
			next[v] += w[i]
		}
		sum += float64(len(nbrs))
		dst = append(dst, nbrs...) // element copy: safe
		return true
	})
	_ = sum
}
