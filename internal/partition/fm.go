package partition

import (
	"repro/internal/graph"
)

// fmEntry is a lazily-invalidated max-heap entry for FM refinement.
type fmEntry struct {
	gain  float64
	node  int32
	stamp uint32
}

// fmHeap is a binary max-heap on gain. push and pop make exactly the
// comparisons container/heap's Push and Pop make and leave the slice in
// the layout its swaps would (the sift carries the moving entry in a hole
// instead), so entries of equal gain pop in the order container/heap gives
// them. FM's tie-breaks, and through them every partition, depend on that
// order; TestFMHeapMatchesContainerHeap holds the two together.
type fmHeap []fmEntry

func (h *fmHeap) push(e fmEntry) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(e.gain > s[i].gain) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = e
	*h = s
}

func (h *fmHeap) pop() fmEntry {
	s := *h
	n := len(s) - 1
	top, e := s[0], s[n]
	s = s[:n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].gain > s[j].gain {
			j = j2
		}
		if !(s[j].gain > e.gain) {
			break
		}
		s[i] = s[j]
		i = j
	}
	if n > 0 {
		s[i] = e
	}
	*h = s
	return top
}

// Per-vertex state within one FM pass.
const (
	fmIdle   uint8 = iota // unlocked, no live heap entry
	fmQueued              // unlocked, its current-stamp entry is in the heap
	fmLocked              // moved this pass
)

// fmStats counts the work FM refinement did. Counts, not times: they are
// the same on every machine, and TestFMWorkIsLinear bounds them so a
// per-neighbour rescan cannot come back unnoticed.
type fmStats struct {
	passes           int // passes started
	moves            int // vertices moved, rolled-back ones included
	gainUpdates      int // O(1) ext/intw adjustments of a moved vertex's neighbours
	pushes, pops     int // heap traffic
	stalePopsSkipped int // stale entries left in the heap when a pass ran out of live ones
}

// fmScratch is the working memory of FM refinement. One is allocated per
// bisection, sized for the finest graph, and serves every pass on every
// uncoarsening level.
type fmScratch struct {
	ext, intw []float64 // per vertex: edge weight to the other / its own side
	state     []uint8
	stamp     []uint32 // current entry generation; older heap entries are stale
	heap      fmHeap
	moves     []int32 // move log of the running pass
	stats     fmStats

	// afterMove, when set, runs after each applied move and its neighbour
	// updates (test seam: the incremental gains are checked against a
	// from-scratch recompute there).
	afterMove func()
}

func newFMScratch(n int) *fmScratch {
	return &fmScratch{
		ext:   make([]float64, n),
		intw:  make([]float64, n),
		state: make([]uint8, n),
		stamp: make([]uint32, n),
	}
}

// fmGains returns u's edge weight to the other side and to its own side,
// from scratch (self-loops count for neither).
func fmGains(c *graph.CSR, side []int8, u int32) (ext, intw float64) {
	nbrs, ws := c.Neighbors(graph.NodeID(u))
	for i, v := range nbrs {
		if int32(v) == u {
			continue
		}
		if side[v] != side[u] {
			ext += ws[i]
		} else {
			intw += ws[i]
		}
	}
	return ext, intw
}

// fmRefine runs Fiduccia–Mattheyses boundary refinement passes on a
// bisection. Each pass tentatively moves vertices in best-gain-first order
// (each vertex at most once, balance respected), then rolls back to the
// best prefix seen. Stops early when a pass yields no improvement.
//
// A pass costs O(half-edges · log) heap work: gains are computed from
// scratch once when it starts, and a move then adjusts each unlocked
// neighbour's ext/intw by ±w, which needs c's adjacency to be symmetric
// (v in u's row with weight w iff u in v's row with weight w). For weights
// whose sums are exact in float64 the adjusted values equal a recompute
// bit for bit; otherwise rounding may differ in the last place within a
// pass and is discarded at the next pass's recompute.
//
// side is modified in place. frac is the target fraction of total node
// weight on side 0; imbalance the allowed overweight ratio per side. sc
// must have been sized for at least c.N() vertices.
func fmRefine(c *graph.CSR, side []int8, frac, imbalance float64, passes int, sc *fmScratch) {
	if passes <= 0 || c.N() < 2 {
		return
	}
	n := c.N()
	total := float64(c.TotalNodeWeight())
	target0 := frac * total
	target1 := total - target0
	max0 := target0 * imbalance
	max1 := target1 * imbalance
	ext, intw, state, stamp := sc.ext[:n], sc.intw[:n], sc.state[:n], sc.stamp[:n]
	h, st := &sc.heap, &sc.stats

	var w0 float64
	for u := 0; u < n; u++ {
		if side[u] == 0 {
			w0 += float64(c.NodeW[u])
		}
	}

	for pass := 0; pass < passes; pass++ {
		st.passes++
		*h = (*h)[:0]
		live := 0 // vertices in state fmQueued
		for u := int32(0); u < int32(n); u++ {
			state[u] = fmIdle
			ext[u], intw[u] = fmGains(c, side, u)
			if ext[u] > 0 || intw[u] == 0 { // boundary (or isolated) vertices only
				stamp[u]++
				h.push(fmEntry{gain: ext[u] - intw[u], node: u, stamp: stamp[u]})
				state[u] = fmQueued
				live++
			}
		}
		st.pushes += live
		if live == 0 {
			return
		}
		moves := sc.moves[:0]
		var cum, best float64
		bestIdx := -1
		// Every entry left once live reaches 0 is stale: popping it would
		// change nothing, so the pass ends there.
		for live > 0 {
			e := h.pop()
			st.pops++
			u := e.node
			if state[u] == fmLocked || e.stamp != stamp[u] {
				continue
			}
			state[u] = fmIdle
			live--
			// Balance check for the tentative move.
			wu := float64(c.NodeW[u])
			if side[u] == 0 {
				if (total-w0)+wu > max1 {
					continue
				}
			} else {
				if w0+wu > max0 {
					continue
				}
			}
			// Apply move.
			gain := ext[u] - intw[u]
			if side[u] == 0 {
				side[u] = 1
				w0 -= wu
			} else {
				side[u] = 0
				w0 += wu
			}
			state[u] = fmLocked
			cum += gain
			moves = append(moves, u)
			if cum > best || (cum == best && bestIdx < 0) {
				best = cum
				bestIdx = len(moves) - 1
			}
			// Update neighbors: the edge to u changed from external to
			// internal for those now on u's side, the reverse for the rest.
			nbrs, ws := c.Neighbors(graph.NodeID(u))
			for i, v := range nbrs {
				if int32(v) == u || state[v] == fmLocked {
					continue
				}
				st.gainUpdates++
				if w := ws[i]; side[v] == side[u] {
					ext[v] -= w
					intw[v] += w
				} else {
					ext[v] += w
					intw[v] -= w
				}
			}
			// Re-queue them in a second scan, so a neighbour listed twice
			// (parallel edges) is pushed with its final gain both times.
			for _, v := range nbrs {
				if int32(v) == u || state[v] == fmLocked {
					continue
				}
				stamp[v]++ // invalidate any stale heap entries
				if ext[v] > 0 || intw[v] == 0 {
					h.push(fmEntry{gain: ext[v] - intw[v], node: int32(v), stamp: stamp[v]})
					st.pushes++
					if state[v] == fmIdle {
						state[v] = fmQueued
						live++
					}
				} else if state[v] == fmQueued {
					state[v] = fmIdle
					live--
				}
			}
			ext[u], intw[u] = intw[u], ext[u] // sides flipped for u
			if sc.afterMove != nil {
				sc.afterMove()
			}
		}
		sc.moves = moves
		st.moves += len(moves)
		st.stalePopsSkipped += len(*h)
		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			u := moves[i]
			wu := float64(c.NodeW[u])
			if side[u] == 0 {
				side[u] = 1
				w0 -= wu
			} else {
				side[u] = 0
				w0 += wu
			}
		}
		if best <= 0 {
			return // pass produced no net improvement
		}
	}
}
