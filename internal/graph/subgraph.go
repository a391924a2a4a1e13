package graph

// Induced returns the subgraph of adj induced by nodes, together with the
// mapping from new IDs to original IDs. Duplicates in nodes are ignored;
// order of first appearance sets the new IDs. directed says how adj
// stores edges: an undirected adjacency holds both half-edges of an edge,
// and the subgraph keeps it once. labelOf, when set, supplies labels, and
// only non-empty ones are set, so chosen nodes without labels make an
// unlabeled subgraph: a paged backend's label index cannot tell empty
// from unlabeled, and every backend must yield the same subgraph.
func Induced(adj Adjacency, directed bool, labelOf func(NodeID) string, nodes []NodeID) (*Graph, []NodeID) {
	old2new := make(map[NodeID]NodeID, len(nodes))
	var new2old []NodeID
	for _, u := range nodes {
		if _, ok := old2new[u]; ok {
			continue
		}
		old2new[u] = NodeID(len(new2old))
		new2old = append(new2old, u)
	}
	sub := NewWithNodes(len(new2old), directed)
	if labelOf != nil {
		for nu, ou := range new2old {
			if l := labelOf(ou); l != "" {
				sub.SetLabel(NodeID(nu), l)
			}
		}
	}
	// Opened after the label lookups above: a goroutine holding a cursor
	// must not read the backend any other way.
	cur := adj.Cursor()
	defer cur.Close()
	for nu, ou := range new2old {
		nbrs, ws := cur.Neighbors(ou)
		for i, v := range nbrs {
			nv, ok := old2new[v]
			if !ok {
				continue
			}
			// Undirected adjacency stores both half-edges; keep each
			// logical edge once (self-loops are stored once already).
			if !directed && v < ou {
				continue
			}
			sub.AddEdge(NodeID(nu), nv, ws[i])
		}
	}
	return sub, new2old
}
