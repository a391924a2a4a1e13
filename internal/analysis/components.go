package analysis

import (
	"repro/internal/graph"
)

// unionFind is the weak-component forest over node ids, edge direction
// ignored, that ReportAdj and LargestComponent build in their sweeps.
type unionFind []int32

func newUnionFind(n int) unionFind {
	parent := make(unionFind, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return parent
}

func (p unionFind) find(x int32) int32 {
	for p[x] != x {
		p[x] = p[p[x]] // path halving
		x = p[x]
	}
	return x
}

func (p unionFind) union(a, b int32) {
	if ra, rb := p.find(a), p.find(b); ra != rb {
		p[ra] = rb
	}
}

// sizes returns each component's node count, indexed by the component's
// root (0 at every other node), and the number of components.
func (p unionFind) sizes() ([]int, int) {
	sizes := make([]int, len(p))
	count := 0
	for u := range p {
		r := p.find(int32(u))
		if sizes[r] == 0 {
			count++
		}
		sizes[r]++
	}
	return sizes, count
}

// StrongComponents labels each node with a strongly-connected component id
// using an iterative Tarjan algorithm (safe for deep graphs), returning the
// labels and the component count. For undirected graphs every stored edge
// has its reverse, so SCCs coincide with weak components.
func StrongComponents(adj graph.Adjacency) ([]int32, int) {
	n := adj.N()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var nextIndex, nComp int32

	type frame struct {
		v  int32
		ei int // next adjacency index to explore
	}
	cur := adj.Cursor()
	defer cur.Close()
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		call := []frame{{v: int32(start)}}
		index[int32(start)] = nextIndex
		low[int32(start)] = nextIndex
		nextIndex++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			adv := false
			// Re-read v's row on every resume: a row is valid only until
			// the cursor's next read.
			nbrs := cur.NeighborIDs(graph.NodeID(v))
			for f.ei < len(nbrs) {
				w := int32(nbrs[f.ei])
				f.ei++
				if index[w] == unvisited {
					index[w] = nextIndex
					low[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					adv = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if adv {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, int(nComp)
}

// LargestComponent returns the nodes of the largest weak component, in
// ascending order; among components of equal size, the one holding the
// smallest node id.
func LargestComponent(adj graph.Adjacency) []graph.NodeID {
	n := adj.N()
	uf := newUnionFind(n)
	// A sweep error means a paged backend faulted and latched the fault
	// on the view swept; callers over a paged view check it (see ReportAdj).
	_ = adj.SweepEdges(0, graph.NodeID(n), func(u graph.NodeID, nbrs []graph.NodeID, _ []float64) bool {
		for _, v := range nbrs {
			uf.union(int32(u), int32(v))
		}
		return true
	})
	sizes, _ := uf.sizes()
	best := int32(-1)
	for u := range int32(n) {
		if r := uf.find(u); best < 0 || sizes[r] > sizes[best] {
			best = r
		}
	}
	var out []graph.NodeID
	for u := range int32(n) {
		if uf.find(u) == best {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}
