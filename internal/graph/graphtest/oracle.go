package graphtest

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Oracle is a graph held as a map from each node to its edge list, with
// the kernels GMine runs over an Adjacency written out the textbook way:
// dense RWR, power-iteration PageRank, BFS components, strong components
// by mutual reachability, the all-pairs hop plot, the degree histogram and
// the key-path DP. It is the referee the kernel tables
// compare every backend against, so it is written for clarity and never
// for speed — small graphs only.
type Oracle struct {
	n        int
	directed bool
	out      map[graph.NodeID][]graph.Edge // each row in graph.ToCSR order
}

// NewOracle copies g's rows into an Oracle.
func NewOracle(g *graph.Graph) *Oracle {
	o := &Oracle{n: g.NumNodes(), directed: g.Directed(), out: map[graph.NodeID][]graph.Edge{}}
	for u := range graph.NodeID(o.n) {
		o.out[u] = slices.Clone(g.Neighbors(u))
	}
	return o
}

// N returns the number of nodes.
func (o *Oracle) N() int { return o.n }

// weightedDegree sums u's edge weights in row order, the order every
// Adjacency backend sums them in.
func (o *Oracle) weightedDegree(u graph.NodeID) float64 {
	var s float64
	for _, e := range o.out[u] {
		s += e.Weight
	}
	return s
}

// RWR solves r = (1-c)·Pᵀr + c·e exactly by Gaussian elimination, where
// e spreads the restart evenly over sources, P moves along an edge with
// probability proportional to its weight, and a walker on a node without
// edges restarts.
func (o *Oracle) RWR(c float64, sources ...graph.NodeID) []float64 {
	n := o.n
	a, b := identity(n), make([]float64, n)
	share := 1 / float64(len(sources))
	for _, s := range sources {
		b[s] += c * share
	}
	for u := range graph.NodeID(n) {
		wd := o.weightedDegree(u)
		if wd == 0 {
			for _, s := range sources {
				a[s][u] -= (1 - c) * share
			}
			continue
		}
		for _, e := range o.out[u] {
			a[e.To][u] -= (1 - c) * e.Weight / wd
		}
	}
	return solve(a, b)
}

// PageRank is weighted PageRank by power iteration, run until the vector
// stops moving: a node without edges spreads its rank uniformly over
// every node.
func (o *Oracle) PageRank(damping float64) []float64 {
	n := o.n
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < 1000; iter++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for u := range graph.NodeID(n) {
			wd := o.weightedDegree(u)
			if wd == 0 {
				for v := range next {
					next[v] += damping * rank[u] / float64(n)
				}
				continue
			}
			for _, e := range o.out[u] {
				next[e.To] += damping * rank[u] * e.Weight / wd
			}
		}
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank = next
		if delta < 1e-15 {
			break
		}
	}
	return rank
}

// Structure is the oracle's whole-graph structure report: stored-degree
// histogram and extremes, self-loops, logical edges and weak components.
type Structure struct {
	Histogram        map[int]int
	MinDegree        int
	MaxDegree        int
	MeanDegree       float64
	HalfEdges        int
	Edges            int
	SelfLoops        int
	WeakComponents   int
	LargestComponent int
}

// Structure computes the report by counting rows and by breadth-first
// search over the edges with their direction ignored.
func (o *Oracle) Structure() Structure {
	s := Structure{Histogram: map[int]int{}, MinDegree: math.MaxInt}
	undirected := map[graph.NodeID][]graph.NodeID{}
	for u := range graph.NodeID(o.n) {
		d := len(o.out[u])
		s.Histogram[d]++
		s.MinDegree, s.MaxDegree = min(s.MinDegree, d), max(s.MaxDegree, d)
		s.HalfEdges += d
		for _, e := range o.out[u] {
			switch {
			case e.To == u:
				s.SelfLoops++
				s.Edges++
			case o.directed || u < e.To:
				s.Edges++
			}
			undirected[u] = append(undirected[u], e.To)
			undirected[e.To] = append(undirected[e.To], u)
		}
	}
	if o.n > 0 {
		s.MeanDegree = float64(s.HalfEdges) / float64(o.n)
	}
	seen := map[graph.NodeID]bool{}
	for root := range graph.NodeID(o.n) {
		if seen[root] {
			continue
		}
		s.WeakComponents++
		size, queue := 0, []graph.NodeID{root}
		seen[root] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			size++
			for _, v := range undirected[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		s.LargestComponent = max(s.LargestComponent, size)
	}
	return s
}

// distances returns the hop distance from src to every node it reaches,
// by breadth-first search along stored edges.
func (o *Oracle) distances(src graph.NodeID) map[graph.NodeID]int {
	dist := map[graph.NodeID]int{src: 0}
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range o.out[u] {
			if _, seen := dist[e.To]; !seen {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// StrongComponents counts strongly connected components by definition:
// u and v share one when each reaches the other. An undirected graph
// stores every edge both ways, so its strong components are its weak
// ones.
func (o *Oracle) StrongComponents() int {
	reach := make([]map[graph.NodeID]int, o.n)
	for u := range graph.NodeID(o.n) {
		reach[u] = o.distances(u)
	}
	count, placed := 0, map[graph.NodeID]bool{}
	for u := range graph.NodeID(o.n) {
		if placed[u] {
			continue
		}
		count++
		for v := range graph.NodeID(o.n) {
			_, uv := reach[u][v]
			_, vu := reach[v][u]
			if uv && vu {
				placed[v] = true
			}
		}
	}
	return count
}

// Hops is the exact hop plot: Counts[h] is the number of ordered pairs
// (u, v), the n pairs (u, u) included, with v reachable from u in at most
// h hops; MaxHops is the longest finite distance, and EffectiveDiameter
// the smallest h whose count reaches 90% of Counts[MaxHops].
type Hops struct {
	Counts            []float64
	MaxHops           int
	EffectiveDiameter int
}

// Hops computes the hop plot from a breadth-first search out of every
// node.
func (o *Oracle) Hops() Hops {
	var h Hops
	if o.n == 0 {
		return h
	}
	perHop := map[int]int{}
	for u := range graph.NodeID(o.n) {
		for _, d := range o.distances(u) {
			perHop[d]++
			h.MaxHops = max(h.MaxHops, d)
		}
	}
	pairs := 0
	for d := 0; d <= h.MaxHops; d++ {
		pairs += perHop[d]
		h.Counts = append(h.Counts, float64(pairs))
	}
	for d, c := range h.Counts {
		if c >= 0.9*h.Counts[h.MaxHops] {
			h.EffectiveDiameter = d
			break
		}
	}
	return h
}

// KeyPath is the key-path DP as written in a textbook: tables over every
// level, every row relaxed at every level in ascending order, and the
// smallest-predecessor rule spelled out. score[l][v] is the best sum of
// logGood over an l-edge walk from src to v (logGood[src] included) and
// parent[l][v] its predecessor; -Inf and -1 where no walk exists. ties
// counts the relaxations that matched a level's best score from a
// different predecessor.
func (o *Oracle) KeyPath(src graph.NodeID, logGood []float64, maxLen int) (score [][]float64, parent [][]int32, ties int) {
	n, negInf := o.n, math.Inf(-1)
	score, parent = make([][]float64, maxLen+1), make([][]int32, maxLen+1)
	for l := range score {
		score[l], parent[l] = make([]float64, n), make([]int32, n)
		for v := range score[l] {
			score[l][v], parent[l][v] = negInf, -1
		}
	}
	score[0][src] = logGood[src]
	for l := 1; l <= maxLen; l++ {
		for u := range graph.NodeID(n) {
			if score[l-1][u] == negInf {
				continue
			}
			for _, e := range o.out[u] {
				v := e.To
				if logGood[v] == negInf {
					continue
				}
				cand, p := score[l-1][u]+logGood[v], parent[l][v]
				if cand == score[l][v] && p != int32(u) {
					ties++
				}
				if cand > score[l][v] || cand == score[l][v] && int32(u) < p {
					score[l][v], parent[l][v] = cand, int32(u)
				}
			}
		}
	}
	return score, parent, ties
}

// BestLength is the first length at which the KeyPath score to dst is
// highest, and that score: -1 and -Inf when no walk of 1..maxLen edges
// reaches dst.
func BestLength(score [][]float64, dst graph.NodeID) (int, float64) {
	best, bestScore := -1, math.Inf(-1)
	for l := 1; l < len(score); l++ {
		if score[l][dst] > bestScore {
			best, bestScore = l, score[l][dst]
		}
	}
	return best, bestScore
}

// Walk reads the key path out of KeyPath's tables: the parent chain back
// from dst at its best length, repeated nodes dropped; just dst when it
// is the source, nil when no walk reaches it.
func Walk(score [][]float64, parent [][]int32, src, dst graph.NodeID) []graph.NodeID {
	if src == dst {
		return []graph.NodeID{dst}
	}
	best, _ := BestLength(score, dst)
	if best < 0 {
		return nil
	}
	chain := []graph.NodeID{dst}
	for l, v := best, dst; l >= 1; l-- {
		v = graph.NodeID(parent[l][v])
		chain = append(chain, v)
	}
	slices.Reverse(chain)
	var path []graph.NodeID
	for _, v := range chain {
		if !slices.Contains(path, v) {
			path = append(path, v)
		}
	}
	return path
}

// Extract is the paper's connection-subgraph loop over a given goodness
// vector: start from the sources; while the budget allows, pick the
// highest-goodness node not yet chosen (lowest id among ties, positive
// goodness only) as the destination, add each source's key path to it,
// then the destination itself. It returns the chosen nodes in the order
// they were added.
func (o *Oracle) Extract(goodness []float64, sources []graph.NodeID, budget, maxLen int) []graph.NodeID {
	logGood := make([]float64, o.n)
	for v, gv := range goodness {
		logGood[v] = math.Inf(-1)
		if gv > 0 {
			logGood[v] = math.Log(gv)
		}
	}
	chosen, in := []graph.NodeID{}, map[graph.NodeID]bool{}
	add := func(u graph.NodeID) {
		if !in[u] && len(chosen) < budget {
			in[u] = true
			chosen = append(chosen, u)
		}
	}
	for _, s := range sources {
		add(s)
	}
	picked := map[graph.NodeID]bool{}
	for len(chosen) < budget {
		dst, best := graph.NodeID(-1), 0.0
		for v, gv := range goodness {
			if u := graph.NodeID(v); !in[u] && !picked[u] && gv > best {
				dst, best = u, gv
			}
		}
		if dst < 0 {
			break
		}
		picked[dst] = true
		for _, s := range sources {
			score, parent, _ := o.KeyPath(s, logGood, maxLen)
			for _, u := range Walk(score, parent, s, dst) {
				add(u)
			}
		}
		add(dst)
	}
	return chosen
}

// InducedEdges counts the logical edges among nodes: each undirected
// edge once, each directed edge and self-loop once.
func (o *Oracle) InducedEdges(nodes []graph.NodeID) int {
	edges := 0
	for _, u := range nodes {
		for _, e := range o.out[u] {
			if slices.Contains(nodes, e.To) && (o.directed || u <= e.To) {
				edges++
			}
		}
	}
	return edges
}

// identity returns the n×n identity matrix.
func identity(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 1
	}
	return a
}

// solve returns x with a·x = b by Gaussian elimination with partial
// pivoting, overwriting a and b.
func solve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := range n {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x
}
