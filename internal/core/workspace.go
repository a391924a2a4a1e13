package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/render"
)

// This file implements the remaining §III.B interactions: "GMine also
// offers pop up node information, edge expansion and edition of nodes and
// edges". NodeInfo is the pop-up; Workspace is the editable drawing
// surface a focused subgraph becomes, with edge expansion pulling in
// cross-community edges from the full graph. Both read the graph's rows
// through a query view's cursor, like every other engine query.

// NodeInfo is the pop-up shown when hovering a node (Fig 5's "one can see
// Prof. H. V. Jagadish data and his edges highlighted").
type NodeInfo struct {
	Node           graph.NodeID
	Label          string
	Degree         int
	WeightedDegree float64
	// Leaf is the community holding the node; Path its hierarchy path.
	Leaf gtree.TreeID
	Path []gtree.TreeID
	// TopCoauthors lists up to 5 heaviest neighbors (label, weight).
	TopCoauthors []Coauthor
}

// Coauthor is one neighbor entry of a pop-up.
type Coauthor struct {
	Node   graph.NodeID
	Label  string
	Weight float64
}

// NodeInfo returns the pop-up information for an original-graph node.
// Leaf and Path are known on engines whose tree carries leaf membership
// (built engines); on an engine opened from a file Leaf is InvalidTree.
func (e *Engine) NodeInfo(u graph.NodeID) (*NodeInfo, error) {
	if n := e.store.GraphNodes(); u < 0 || int(u) >= n {
		return nil, fmt.Errorf("%w: %d (n=%d)", graph.ErrNodeRange, u, n)
	}
	var row []graph.Edge
	if err := e.readRows(func(cur graph.RowCursor) { row = rowOf(cur, u) }); err != nil {
		return nil, err
	}
	info := &NodeInfo{Node: u, Label: e.store.LabelOf(u), Degree: len(row), Leaf: e.tree.LeafOf(u)}
	for _, ed := range row {
		info.WeightedDegree += ed.Weight
	}
	if info.Leaf != gtree.InvalidTree {
		info.Path = e.tree.Path(info.Leaf)
	}
	nbrs := heaviestFirst(row)
	for i := 0; i < len(nbrs) && i < 5; i++ {
		info.TopCoauthors = append(info.TopCoauthors, Coauthor{
			Node: nbrs[i].To, Label: e.store.LabelOf(nbrs[i].To), Weight: nbrs[i].Weight,
		})
	}
	return info, nil
}

// readRows runs fn with a row cursor on a fresh query view, with the
// label index loaded, and reports a fault any of its reads latched as
// ErrPagedIO.
func (e *Engine) readRows(fn func(cur graph.RowCursor)) error {
	ctx := context.Background()
	adj, view, release, err := e.queryAdj(ctx, nil)
	if err != nil {
		return err
	}
	defer release()
	if err := e.preloadLabels(); err != nil {
		return err
	}
	return withFaultCheck(ctx, view, func() error {
		cur := adj.Cursor()
		defer cur.Close()
		fn(cur)
		return nil
	})
}

// rowOf copies u's row out of cur.
func rowOf(cur graph.RowCursor, u graph.NodeID) []graph.Edge {
	ids, ws := cur.Neighbors(u)
	row := make([]graph.Edge, len(ids))
	for i, v := range ids {
		row[i] = graph.Edge{To: v, Weight: ws[i]}
	}
	return row
}

// heaviestFirst sorts row by weight descending, then id ascending.
func heaviestFirst(row []graph.Edge) []graph.Edge {
	sort.Slice(row, func(i, j int) bool {
		if row[i].Weight != row[j].Weight {
			return row[i].Weight > row[j].Weight
		}
		return row[i].To < row[j].To
	})
	return row
}

// Workspace is an editable working subgraph: the region of the
// visualization scene that "becomes a regular area for graph drawing"
// when a community is expanded. It supports GMine's editing interactions
// (add/remove nodes and edges) and edge expansion against the engine's
// full graph.
type Workspace struct {
	eng *Engine
	sub *graph.Graph
	// members maps local ids to original graph ids; -1 for nodes created
	// by editing that have no original counterpart.
	members []graph.NodeID
	local   map[graph.NodeID]graph.NodeID // original -> local
	edits   int
}

// WorkspaceFromLeaf opens a leaf community as an editable workspace.
func (e *Engine) WorkspaceFromLeaf(id gtree.TreeID) (*Workspace, error) {
	sub, members, err := e.LeafSubgraph(id)
	if err != nil {
		return nil, err
	}
	w := &Workspace{eng: e, sub: sub, members: members, local: map[graph.NodeID]graph.NodeID{}}
	for i, u := range members {
		w.local[u] = graph.NodeID(i)
	}
	return w, nil
}

// Graph returns the current working subgraph (local coordinates).
func (w *Workspace) Graph() *graph.Graph { return w.sub }

// Members returns the local->original mapping (-1 for edited-in nodes).
func (w *Workspace) Members() []graph.NodeID { return w.members }

// Edits returns the number of applied editing operations.
func (w *Workspace) Edits() int { return w.edits }

// OriginalOf returns the original graph node behind a local id, or -1.
func (w *Workspace) OriginalOf(local graph.NodeID) graph.NodeID {
	if int(local) >= len(w.members) {
		return -1
	}
	return w.members[local]
}

// LocalOf returns the local id of an original node, or -1 if absent.
func (w *Workspace) LocalOf(orig graph.NodeID) graph.NodeID {
	if l, ok := w.local[orig]; ok {
		return l
	}
	return -1
}

// AddNode creates a new node in the workspace (a pure editing operation;
// it has no counterpart in the original graph).
func (w *Workspace) AddNode(label string) graph.NodeID {
	id := w.sub.AddNode(label)
	w.members = append(w.members, -1)
	w.edits++
	return id
}

// AddEdge adds (or reinforces) an edge between two local nodes.
func (w *Workspace) AddEdge(u, v graph.NodeID, weight float64) error {
	if err := w.sub.CheckNode(u); err != nil {
		return err
	}
	if err := w.sub.CheckNode(v); err != nil {
		return err
	}
	if weight <= 0 {
		return fmt.Errorf("core: edge weight must be positive")
	}
	w.sub.AddEdge(u, v, weight)
	w.sub.Dedup()
	w.edits++
	return nil
}

// RemoveEdge deletes the edge between two local nodes if present.
func (w *Workspace) RemoveEdge(u, v graph.NodeID) error {
	if err := w.sub.CheckNode(u); err != nil {
		return err
	}
	if err := w.sub.CheckNode(v); err != nil {
		return err
	}
	if !w.sub.HasEdge(u, v) {
		return fmt.Errorf("core: no edge %d-%d", u, v)
	}
	// Rebuild without the edge (workspaces are community-sized; a rebuild
	// is simpler and safer than in-place splicing).
	ng := graph.NewWithNodes(w.sub.NumNodes(), w.sub.Directed())
	if w.sub.Labeled() {
		for i, l := range w.sub.Labels() {
			if l != "" {
				ng.SetLabel(graph.NodeID(i), l)
			}
		}
	}
	w.sub.Edges(func(a, b graph.NodeID, wt float64) bool {
		if !(a == u && b == v) && !(a == v && b == u) {
			ng.AddEdge(a, b, wt)
		}
		return true
	})
	w.sub = ng
	w.edits++
	return nil
}

// RemoveNode deletes a local node and its incident edges. Local ids above
// it shift down by one (the mapping slices are updated accordingly).
func (w *Workspace) RemoveNode(u graph.NodeID) error {
	if err := w.sub.CheckNode(u); err != nil {
		return err
	}
	keep := make([]graph.NodeID, 0, w.sub.NumNodes()-1)
	for i := 0; i < w.sub.NumNodes(); i++ {
		if graph.NodeID(i) != u {
			keep = append(keep, graph.NodeID(i))
		}
	}
	ng, _ := graph.Induced(w.sub, keep)
	newMembers := make([]graph.NodeID, 0, len(keep))
	for _, old := range keep {
		newMembers = append(newMembers, w.members[old])
	}
	w.sub = ng
	w.members = newMembers
	w.local = map[graph.NodeID]graph.NodeID{}
	for i, orig := range w.members {
		if orig >= 0 {
			w.local[orig] = graph.NodeID(i)
		}
	}
	w.edits++
	return nil
}

// ExpandNode performs GMine's edge expansion: it pulls the cross-community
// neighbors of a node from the full graph into the workspace, together
// with their connecting edges. Returns the local ids of newly added
// neighbors.
func (w *Workspace) ExpandNode(local graph.NodeID, maxNew int) ([]graph.NodeID, error) {
	if err := w.sub.CheckNode(local); err != nil {
		return nil, err
	}
	orig := w.OriginalOf(local)
	if orig < 0 {
		return nil, fmt.Errorf("core: node %d was created by editing; nothing to expand", local)
	}
	if maxNew <= 0 {
		maxNew = 10
	}
	// Read every row first, so a faulted read leaves the workspace as it
	// was. Heaviest absent neighbors first.
	var picked []graph.Edge
	rows := map[graph.NodeID][]graph.Edge{}
	err := w.eng.readRows(func(cur graph.RowCursor) {
		for _, e := range heaviestFirst(rowOf(cur, orig)) {
			if _, ok := w.local[e.To]; !ok && rows[e.To] == nil && len(picked) < maxNew {
				rows[e.To] = rowOf(cur, e.To)
				picked = append(picked, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var added []graph.NodeID
	for _, e := range picked {
		nl := w.sub.AddNode(w.eng.store.LabelOf(e.To))
		w.members = append(w.members, e.To)
		w.local[e.To] = nl
		w.sub.AddEdge(local, nl, e.Weight)
		added = append(added, nl)
	}
	// Wire edges among everything now present (new nodes may connect to
	// existing workspace nodes beyond the expanded one).
	for _, nl := range added {
		for _, e := range rows[w.members[nl]] {
			if tl, ok := w.local[e.To]; ok && tl != local && !w.sub.HasEdge(nl, tl) {
				w.sub.AddEdge(nl, tl, e.Weight)
			}
		}
	}
	w.edits++
	return added, nil
}

// Render lays out and renders the workspace, highlighting the given local
// nodes.
func (w *Workspace) Render(size float64, highlight []graph.NodeID, seed int64) string {
	pos := layout.ForceLayout(w.sub, layout.Circle{R: size / 2 * 0.9}, layout.ForceOptions{Seed: seed})
	return render.SubgraphSVG(w.sub, pos, highlight, size)
}
