package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// multilevelBisect splits c into two sides, side 0 receiving close to frac
// of the total node weight. It coarsens, bisects the coarsest graph by
// greedy graph growing, and refines with FM on every uncoarsening level.
func multilevelBisect(c *graph.CSR, frac float64, opts Options, rng *rand.Rand) []int8 {
	levels := coarsen(c, max(coarsenTo, 4*opts.K), rng)
	coarsest := levels[len(levels)-1].csr
	side := growBisection(coarsest, frac, rng)
	sc := newFMScratch(c.N())
	fmRefine(coarsest, side, frac, imbalance, opts.FMPasses, sc)
	// Project back through the hierarchy, refining at each level.
	for li := len(levels) - 1; li > 0; li-- {
		fine := levels[li-1].csr
		cmap := levels[li].cmap
		fineSide := make([]int8, fine.N())
		for u := 0; u < fine.N(); u++ {
			fineSide[u] = side[cmap[u]]
		}
		side = fineSide
		fmRefine(fine, side, frac, imbalance, opts.FMPasses, sc)
	}
	return side
}

// growBisection produces an initial bisection of a small graph by greedy
// graph growing: start from a random seed, repeatedly absorb the frontier
// node whose move reduces the would-be cut most, until side 0 holds the
// target weight. Tries several seeds and keeps the smallest cut.
func growBisection(c *graph.CSR, frac float64, rng *rand.Rand) []int8 {
	n := c.N()
	total := c.TotalNodeWeight()
	target := int64(frac * float64(total))
	if target < 1 {
		target = 1
	}
	var bestSide []int8
	bestCut := -1.0
	for t := 0; t < growTries; t++ {
		side := make([]int8, n)
		for i := range side {
			side[i] = 1
		}
		// gain[u] = reduction in cut if u moves to side 0
		// (weight to side-0 neighbors minus weight to side-1 neighbors).
		// With everything on side 1 initially, that is -wdeg(u); each
		// neighbor that crosses adds 2w.
		gain := make([]float64, n)
		for u := 0; u < n; u++ {
			gain[u] = -c.WeightedDegree(graph.NodeID(u))
		}
		inFront := make([]bool, n)
		var frontier []int32
		var w0 int64
		seed := int32(rng.Intn(n))
		addFrontier := func(u int32) {
			if !inFront[u] && side[u] == 1 {
				inFront[u] = true
				frontier = append(frontier, u)
			}
		}
		addFrontier(seed)
		for w0 < target && len(frontier) > 0 {
			// Pick the max-gain frontier node (coarse graphs are small,
			// linear scan is fine).
			bi := 0
			for i := 1; i < len(frontier); i++ {
				if gain[frontier[i]] > gain[frontier[bi]] {
					bi = i
				}
			}
			u := frontier[bi]
			frontier[bi] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			inFront[u] = false
			side[u] = 0
			w0 += int64(c.NodeW[u])
			nbrs, ws := c.Neighbors(graph.NodeID(u))
			for i, v := range nbrs {
				if int32(v) == u {
					continue
				}
				gain[v] += 2 * ws[i]
				addFrontier(int32(v))
			}
		}
		// If the component containing the seed ran out before reaching the
		// target, absorb arbitrary remaining side-1 nodes.
		for u := int32(0); w0 < target && u < int32(n); u++ {
			if side[u] == 1 {
				side[u] = 0
				w0 += int64(c.NodeW[u])
			}
		}
		cut := sideCut(c, side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestSide = side
		}
	}
	return bestSide
}

// sideCut returns the weight of edges crossing a bisection.
func sideCut(c *graph.CSR, side []int8) float64 {
	var cut float64
	for u := 0; u < c.N(); u++ {
		nbrs, ws := c.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if side[v] != side[u] {
				cut += ws[i]
			}
		}
	}
	return cut / 2
}
