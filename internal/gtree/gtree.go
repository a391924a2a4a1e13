// Package gtree implements the paper's central data structure: the G-Tree,
// an R-tree-like hierarchy of communities-within-communities produced by
// recursive k-way partitioning of a graph.
//
// Tree nodes are communities; the children of a community are the parts of
// its k-way partitioning; leaf communities reference the actual graph
// nodes. Connectivity edges — the number and weight of original edges
// crossing two communities at the same level — are precomputed bottom-up so
// that interactive scenes never rescan the graph. The Tomahawk principle
// (focus + children + siblings + ancestors) selects what is displayed.
//
// A tree can live purely in memory (Build) or be persisted to a single
// page file (Save/OpenFile) from which leaf communities are loaded on
// demand through a buffer pool, as the paper requires.
package gtree

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// TreeID identifies a tree node (community). The root is always 0.
type TreeID int32

// InvalidTree is the nil tree id (e.g. parent of the root).
const InvalidTree TreeID = -1

// Node is one community in the G-Tree.
type Node struct {
	ID     TreeID
	Parent TreeID // InvalidTree for the root
	Level  int    // 0 for the root
	// Children are the sub-communities (empty for leaves).
	Children []TreeID
	// Size is the number of graph nodes under this community.
	Size int
	// Members holds the graph nodes of a leaf community (nil for internal
	// nodes and for trees opened from disk, where members load on demand).
	Members []graph.NodeID
	// InternalCount / InternalWeight aggregate the original edges whose
	// endpoints both lie inside this community.
	InternalCount  int
	InternalWeight float64
	// MemberPage is the storage page of the leaf blob (persisted trees).
	MemberPage uint32
}

// IsLeaf reports whether the community has no sub-communities.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// ConnStat aggregates the original edges crossing two communities.
type ConnStat struct {
	Count  int
	Weight float64
}

type connKey struct{ a, b TreeID }

func mkConnKey(a, b TreeID) connKey {
	if a > b {
		a, b = b, a
	}
	return connKey{a, b}
}

// Tree is the in-memory G-Tree: topology, per-level connectivity edges and
// (for trees built in memory) the members of every leaf.
type Tree struct {
	K      int
	Levels int // deepest populated level + 1
	nodes  []Node
	conn   map[connKey]ConnStat
}

// Root returns the root community id.
func (t *Tree) Root() TreeID { return 0 }

// NumCommunities returns the number of tree nodes (communities), root
// included.
func (t *Tree) NumCommunities() int { return len(t.nodes) }

// Node returns the community with the given id.
func (t *Tree) Node(id TreeID) *Node { return &t.nodes[id] }

// Valid reports whether id denotes an existing community.
func (t *Tree) Valid(id TreeID) bool { return id >= 0 && int(id) < len(t.nodes) }

// Leaves returns the ids of all leaf communities in id order.
func (t *Tree) Leaves() []TreeID {
	var out []TreeID
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			out = append(out, TreeID(i))
		}
	}
	return out
}

// LevelNodes returns the ids of all communities at the given level.
func (t *Tree) LevelNodes(level int) []TreeID {
	var out []TreeID
	for i := range t.nodes {
		if t.nodes[i].Level == level {
			out = append(out, TreeID(i))
		}
	}
	return out
}

// Path returns the communities from the root down to id, inclusive.
func (t *Tree) Path(id TreeID) []TreeID {
	var rev []TreeID
	for cur := id; cur != InvalidTree; cur = t.nodes[cur].Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Siblings returns the other children of id's parent, in id order.
func (t *Tree) Siblings(id TreeID) []TreeID {
	p := t.nodes[id].Parent
	if p == InvalidTree {
		return nil
	}
	var out []TreeID
	for _, c := range t.nodes[p].Children {
		if c != id {
			out = append(out, c)
		}
	}
	return out
}

// Connectivity returns the connectivity edge between communities a and b:
// the number and total weight of original graph edges with one endpoint
// under a and the other under b. Zero-valued for unrelated or nested pairs
// with no precomputed entry (entries exist for same-level pairs).
func (t *Tree) Connectivity(a, b TreeID) ConnStat {
	return t.conn[mkConnKey(a, b)]
}

// ConnectedPairs calls fn for every precomputed connectivity edge.
func (t *Tree) ConnectedPairs(fn func(a, b TreeID, s ConnStat) bool) {
	// Deterministic order for rendering and tests.
	keys := make([]connKey, 0, len(t.conn))
	for k := range t.conn {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		if !fn(k.a, k.b, t.conn[k]) {
			return
		}
	}
}

// Stats summarizes the hierarchy, the numbers E1 reports against the paper
// ("626 communities with an average of 500 nodes per community").
type Stats struct {
	Communities   int   // all tree nodes, root included
	Leaves        int   // leaf communities
	Levels        int   // tree depth (root level counts as 1)
	PerLevel      []int // communities per level
	AvgLeafSize   float64
	MaxLeafSize   int
	MinLeafSize   int
	ConnEdges     int // precomputed connectivity edges
	InternalEdges int // edges inside leaf communities
}

// ComputeStats summarizes the tree.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Communities: len(t.nodes), Levels: t.Levels, MinLeafSize: -1}
	s.PerLevel = make([]int, t.Levels)
	var leafTotal int
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.Level < len(s.PerLevel) {
			s.PerLevel[n.Level]++
		}
		if n.IsLeaf() {
			s.Leaves++
			leafTotal += n.Size
			if n.Size > s.MaxLeafSize {
				s.MaxLeafSize = n.Size
			}
			if s.MinLeafSize < 0 || n.Size < s.MinLeafSize {
				s.MinLeafSize = n.Size
			}
			s.InternalEdges += n.InternalCount
		}
	}
	if s.Leaves > 0 {
		s.AvgLeafSize = float64(leafTotal) / float64(s.Leaves)
	}
	if s.MinLeafSize < 0 {
		s.MinLeafSize = 0
	}
	s.ConnEdges = len(t.conn)
	return s
}

// Validate checks structural invariants: parent/child agreement, level
// consistency, sizes summing up the hierarchy, and, where leaves carry
// their members, that no graph node sits in two leaves.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("gtree: empty tree")
	}
	if t.nodes[0].Parent != InvalidTree || t.nodes[0].Level != 0 {
		return fmt.Errorf("gtree: malformed root")
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.ID != TreeID(i) {
			return fmt.Errorf("gtree: node %d stores id %d", i, n.ID)
		}
		childSum := 0
		for _, c := range n.Children {
			if !t.Valid(c) {
				return fmt.Errorf("gtree: node %d has invalid child %d", i, c)
			}
			cn := &t.nodes[c]
			if cn.Parent != n.ID {
				return fmt.Errorf("gtree: child %d of %d has parent %d", c, i, cn.Parent)
			}
			if cn.Level != n.Level+1 {
				return fmt.Errorf("gtree: child %d at level %d under parent level %d", c, cn.Level, n.Level)
			}
			childSum += cn.Size
		}
		if !n.IsLeaf() && childSum != n.Size {
			return fmt.Errorf("gtree: node %d size %d != children sum %d", i, n.Size, childSum)
		}
		if n.IsLeaf() && n.Members != nil && len(n.Members) != n.Size {
			return fmt.Errorf("gtree: leaf %d size %d != members %d", i, n.Size, len(n.Members))
		}
	}
	leafOf := make(map[graph.NodeID]TreeID)
	for i := range t.nodes {
		for _, u := range t.nodes[i].Members {
			if l, dup := leafOf[u]; dup {
				return fmt.Errorf("gtree: graph node %d in leaves %d and %d", u, l, i)
			}
			leafOf[u] = TreeID(i)
		}
	}
	return nil
}
