// Package analysis implements the subgraph mining metrics GMine offers on
// a focused community (paper §III.B) and on the whole graph: degree
// distribution, number of hops (hop plot and effective diameter), weak
// components, strong components, and PageRank. Every metric reads a
// graph.Adjacency, so one implementation serves a leaf's CSR, the whole
// graph in memory and a paged store alike; Report is the one entry that
// takes a *graph.Graph.
package analysis

import (
	"math"
	"sort"
)

// DegreeStats summarizes a graph's degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Histogram[d] is the number of nodes with degree d, for the degrees
	// that occur.
	Histogram map[int]int
	// PowerLawExponent is the slope of the log-log regression over the
	// histogram (NaN for degenerate distributions). Heavy-tailed
	// co-authorship graphs show exponents around 2-3.
	PowerLawExponent float64
}

// fitPowerLaw regresses log(count) on log(degree) over nonzero degrees.
// Returns the negated slope (the conventional positive exponent), or NaN
// if fewer than two distinct positive degrees occur. Degrees are summed in
// sorted order so the float accumulation — and therefore the exponent's
// exact bits — is deterministic for a given histogram (whole-graph
// analysis compares backends bit for bit).
func fitPowerLaw(hist map[int]int) float64 {
	degrees := make([]int, 0, len(hist))
	for d, c := range hist {
		if d > 0 && c > 0 {
			degrees = append(degrees, d)
		}
	}
	sort.Ints(degrees)
	xs := make([]float64, 0, len(degrees))
	ys := make([]float64, 0, len(degrees))
	for _, d := range degrees {
		xs = append(xs, math.Log(float64(d)))
		ys = append(ys, math.Log(float64(hist[d])))
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	nf := float64(len(xs))
	den := nf*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	slope := (nf*sxy - sx*sy) / den
	return -slope
}
