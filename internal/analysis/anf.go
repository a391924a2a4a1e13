package analysis

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ANF implements the Approximate Neighborhood Function of Palmer,
// Gibbons and Faloutsos (KDD'02): Flajolet–Martin sketches propagated
// along edges estimate |{(u,v) : dist(u,v) <= h}| for every h in one
// O((n+m)·h·k) pass — the practical way to compute GMine's "number of
// hops" metric on the full 315k-node DBLP graph, where n BFS runs are too
// slow.

// ANFOptions tunes the sketch.
type ANFOptions struct {
	// K is the number of parallel FM sketches averaged (default 32;
	// error shrinks as 1/sqrt(K)).
	K int
	// MaxHops caps the propagation (default 32).
	MaxHops int
	// Seed drives the random sketch bits.
	Seed int64
}

func (o ANFOptions) withDefaults() ANFOptions {
	if o.K <= 0 {
		o.K = 32
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 32
	}
	return o
}

// ANFResult mirrors HopPlot for the approximate computation.
type ANFResult struct {
	// Counts[h] estimates the number of ordered pairs within h hops
	// (including the n self-pairs at h=0).
	Counts []float64
	// EffectiveDiameter is the smallest h reaching 90% of the plateau.
	EffectiveDiameter int
}

const fmSketchBits = 64

// fmRho returns the position of the lowest zero... following FM, the bit
// set for an element is geometrically distributed: bit i with probability
// 2^-(i+1).
func fmBit(rng *rand.Rand) uint {
	b := uint(0)
	for rng.Int63()&1 == 1 && b < fmSketchBits-2 {
		b++
	}
	return b
}

// lowestZero returns the index of the lowest unset bit of x.
func lowestZero(x uint64) int {
	for i := 0; i < fmSketchBits; i++ {
		if x&(1<<uint(i)) == 0 {
			return i
		}
	}
	return fmSketchBits
}

// ComputeANF estimates the neighborhood function of adj with edge
// direction ignored. directed says how adj stores edges: an undirected
// adjacency holds each edge as two half-edges, and one of them carries
// the sketches both ways.
func ComputeANF(adj graph.Adjacency, directed bool, opts ANFOptions) ANFResult {
	opts = opts.withDefaults()
	n := adj.N()
	res := ANFResult{}
	if n == 0 {
		return res
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	k := opts.K
	// cur[u*k+i] is sketch i of node u.
	cur := make([]uint64, n*k)
	for u := 0; u < n; u++ {
		for i := 0; i < k; i++ {
			cur[u*k+i] = 1 << fmBit(rng)
		}
	}
	next := make([]uint64, n*k)
	estimate := func(sk []uint64) float64 {
		// FM estimate per node: 2^avg(lowestZero)/0.77351, summed.
		var total float64
		for u := 0; u < n; u++ {
			sum := 0
			for i := 0; i < k; i++ {
				sum += lowestZero(sk[u*k+i])
			}
			avg := float64(sum) / float64(k)
			total += math.Pow(2, avg) / 0.77351
		}
		return total
	}
	res.Counts = append(res.Counts, float64(n)) // exact at h=0
	prevEst := float64(n)
	for h := 1; h <= opts.MaxHops; h++ {
		copy(next, cur)
		changed := false
		_ = adj.SweepEdges(0, graph.NodeID(n), func(u graph.NodeID, nbrs []graph.NodeID, _ []float64) bool {
			for _, v := range nbrs {
				if !directed && v < u {
					continue
				}
				for i := 0; i < k; i++ {
					nu := next[int(u)*k+i] | cur[int(v)*k+i]
					if nu != next[int(u)*k+i] {
						next[int(u)*k+i] = nu
						changed = true
					}
					nv := next[int(v)*k+i] | cur[int(u)*k+i]
					if nv != next[int(v)*k+i] {
						next[int(v)*k+i] = nv
						changed = true
					}
				}
			}
			return true
		})
		cur, next = next, cur
		est := estimate(cur)
		if est < prevEst {
			est = prevEst // the true function is monotone
		}
		res.Counts = append(res.Counts, est)
		prevEst = est
		if !changed {
			break // all sketches converged: past the diameter
		}
	}
	plateau := res.Counts[len(res.Counts)-1]
	for h, c := range res.Counts {
		if c >= 0.9*plateau {
			res.EffectiveDiameter = h
			break
		}
	}
	return res
}
