// Package graph provides the graph substrate used by every GMine module:
// a compact weighted graph with optional node labels, support for directed
// and undirected semantics, induced subgraphs, a CSR (compressed sparse row)
// view for algorithm kernels, and the edge-list text format.
//
// The representation is tuned for the workloads of the GMine paper:
// co-authorship style graphs with hundreds of thousands of nodes and a few
// million edges, where edge weights count parallel relationships (e.g. the
// number of papers two authors co-wrote).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node within a Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1. The 32-bit width keeps adjacency lists compact for
// the paper's scale (315k nodes, 1.66M edges).
type NodeID = int32

// Edge is one directed half-edge in an adjacency list.
type Edge struct {
	To     NodeID
	Weight float64
}

// Graph is a weighted graph with optional string labels per node.
//
// For undirected graphs every logical edge {u,v} is stored twice (in the
// adjacency of both endpoints) except self-loops, which are stored once.
// NumEdges reports logical edges, not half-edges.
//
// The zero value is an empty undirected graph ready for AddNode/AddEdge.
type Graph struct {
	directed bool
	adj      [][]Edge
	labels   []string
	numEdges int
	hasLabel bool
}

// New returns an empty graph. If directed is true, AddEdge(u,v) adds only
// the arc u->v; otherwise it adds both half-edges.
func New(directed bool) *Graph {
	return &Graph{directed: directed}
}

// NewWithNodes returns a graph with n unlabeled nodes and no edges.
func NewWithNodes(n int, directed bool) *Graph {
	return &Graph{directed: directed, adj: make([][]Edge, n)}
}

// Directed reports whether the graph has directed semantics.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of logical edges (each undirected edge
// counted once).
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode appends a node with the given label and returns its ID. An empty
// label is allowed and keeps the graph unlabeled if no other labels exist.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(len(g.adj))
	g.adj = append(g.adj, nil)
	if label != "" {
		g.ensureLabels()
		g.labels[id] = label
	} else if g.hasLabel {
		g.labels = append(g.labels, "")
	}
	return id
}

// AddNodes appends n unlabeled nodes.
func (g *Graph) AddNodes(n int) {
	g.adj = append(g.adj, make([][]Edge, n)...)
	if g.hasLabel {
		g.labels = append(g.labels, make([]string, n)...)
	}
}

func (g *Graph) ensureLabels() {
	if !g.hasLabel {
		g.hasLabel = true
		g.labels = make([]string, len(g.adj))
	}
	for len(g.labels) < len(g.adj) {
		g.labels = append(g.labels, "")
	}
}

// SetLabel assigns a label to an existing node.
func (g *Graph) SetLabel(id NodeID, label string) {
	g.ensureLabels()
	g.labels[id] = label
}

// Label returns the label of id, or "" if unlabeled.
func (g *Graph) Label(id NodeID) string {
	if !g.hasLabel || int(id) >= len(g.labels) {
		return ""
	}
	return g.labels[id]
}

// Labeled reports whether any node carries a label.
func (g *Graph) Labeled() bool { return g.hasLabel }

// AddEdge adds an edge u-v (or arc u->v if directed) with the given weight.
// Parallel edges are permitted; call Dedup to merge them by summing weights.
// Self-loops are permitted and stored once.
func (g *Graph) AddEdge(u, v NodeID, w float64) {
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	if !g.directed && u != v {
		g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	}
	g.numEdges++
}

// Degree returns the number of adjacency entries of u (out-degree for
// directed graphs). Parallel edges count separately until Dedup.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Neighbors returns the adjacency slice of u. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Edge { return g.adj[u] }

// WeightedDegree returns the sum of edge weights incident to u
// (out-weights for directed graphs).
func (g *Graph) WeightedDegree(u NodeID) float64 {
	var s float64
	for _, e := range g.adj[u] {
		s += e.Weight
	}
	return s
}

// HasEdge reports whether an edge u->v exists (in either stored direction
// for undirected graphs this is symmetric by construction).
func (g *Graph) HasEdge(u, v NodeID) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the total weight of edges u->v, 0 if none.
func (g *Graph) EdgeWeight(u, v NodeID) float64 {
	var s float64
	for _, e := range g.adj[u] {
		if e.To == v {
			s += e.Weight
		}
	}
	return s
}

// Dedup sorts every adjacency list and merges parallel edges by summing
// their weights. NumEdges is recomputed to the logical count. Dedup is
// idempotent.
func (g *Graph) Dedup() {
	half := 0
	for u := range g.adj {
		l := g.adj[u]
		if len(l) > 1 {
			// Stable so that parallel-edge weights merge in insertion order
			// on both endpoints, keeping float sums exactly symmetric.
			sort.SliceStable(l, func(i, j int) bool { return l[i].To < l[j].To })
			out := l[:1]
			for _, e := range l[1:] {
				if e.To == out[len(out)-1].To {
					out[len(out)-1].Weight += e.Weight
				} else {
					out = append(out, e)
				}
			}
			g.adj[u] = out
		}
		for _, e := range g.adj[u] {
			if g.directed || e.To != NodeID(u) {
				half++
			} else {
				half += 2 // self-loop stored once counts as a full edge
			}
		}
	}
	if g.directed {
		g.numEdges = half
	} else {
		g.numEdges = half / 2
	}
}

// Edges calls fn once per logical edge. For undirected graphs each edge
// {u,v} is reported once with u <= v. Iteration stops early if fn returns
// false.
func (g *Graph) Edges(fn func(u, v NodeID, w float64) bool) {
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if !g.directed && e.To < NodeID(u) {
				continue
			}
			if !fn(NodeID(u), e.To, e.Weight) {
				return
			}
		}
	}
}

// TotalWeight returns the sum of logical edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	g.Edges(func(u, v NodeID, w float64) bool { s += w; return true })
	return s
}

// Validate checks internal invariants: in-range endpoints, symmetric
// storage for undirected graphs, and finite, non-negative weights. It
// returns the first violation found.
func (g *Graph) Validate() error {
	n := NodeID(len(g.adj))
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("graph: node %d has edge to out-of-range node %d (n=%d)", u, e.To, n)
			}
			if e.Weight < 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
				return fmt.Errorf("graph: invalid weight %g on edge %d->%d", e.Weight, u, e.To)
			}
		}
	}
	if !g.directed {
		for u := range g.adj {
			for _, e := range g.adj[u] {
				if e.To == NodeID(u) {
					continue
				}
				if g.EdgeWeight(e.To, NodeID(u)) != g.EdgeWeight(NodeID(u), e.To) {
					return fmt.Errorf("graph: asymmetric undirected edge %d-%d", u, e.To)
				}
			}
		}
	}
	return nil
}

// ErrNodeRange reports an out-of-range node argument.
var ErrNodeRange = errors.New("graph: node id out of range")

// CheckNode returns ErrNodeRange if id is not a valid node.
func (g *Graph) CheckNode(id NodeID) error {
	if id < 0 || int(id) >= len(g.adj) {
		return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, id, len(g.adj))
	}
	return nil
}

// FindLabel returns the first node whose label equals s, or -1.
func (g *Graph) FindLabel(s string) NodeID {
	if !g.hasLabel {
		return -1
	}
	for i, l := range g.labels {
		if l == s {
			return NodeID(i)
		}
	}
	return -1
}

// Labels returns the label slice (nil for unlabeled graphs). The slice is
// owned by the graph.
func (g *Graph) Labels() []string {
	if !g.hasLabel {
		return nil
	}
	return g.labels
}
