package core

import (
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/graph"
)

func TestNodeInfoPopup(t *testing.T) {
	e, ds := testEngine(t)
	han := ds.Notables[dblp.NameJiaweiHan]
	info, err := e.NodeInfo(han)
	if err != nil {
		t.Fatal(err)
	}
	if info.Label != dblp.NameJiaweiHan {
		t.Fatalf("label %q", info.Label)
	}
	if info.Degree != ds.Graph.Degree(han) {
		t.Fatal("degree mismatch")
	}
	if info.Leaf != e.Tree().LeafOf(han) {
		t.Fatal("leaf mismatch")
	}
	if len(info.Path) == 0 || info.Path[0] != e.Tree().Root() {
		t.Fatalf("path %v", info.Path)
	}
	if len(info.TopCoauthors) == 0 {
		t.Fatal("no co-authors in pop-up")
	}
	// Ke Wang is the heaviest collaborator, so he leads the pop-up list.
	if info.TopCoauthors[0].Label != dblp.NameKeWang {
		t.Fatalf("top co-author %q want Ke Wang", info.TopCoauthors[0].Label)
	}
	// Sorted descending by weight.
	for i := 1; i < len(info.TopCoauthors); i++ {
		if info.TopCoauthors[i].Weight > info.TopCoauthors[i-1].Weight {
			t.Fatal("pop-up co-authors not sorted")
		}
	}
	if _, err := e.NodeInfo(graph.NodeID(1 << 30)); err == nil {
		t.Fatal("accepted out-of-range node")
	}
}

func TestWorkspaceFromLeafBasics(t *testing.T) {
	e, _ := testEngine(t)
	leaf := e.Tree().Leaves()[0]
	w, err := e.WorkspaceFromLeaf(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph().NumNodes() != e.Tree().Node(leaf).Size {
		t.Fatal("workspace size mismatch")
	}
	if w.Edits() != 0 {
		t.Fatal("fresh workspace has edits")
	}
	// Round-trip mapping.
	for i, orig := range w.Members() {
		if orig >= 0 && w.LocalOf(orig) != graph.NodeID(i) {
			t.Fatal("local/original mapping broken")
		}
	}
	if w.OriginalOf(graph.NodeID(1<<20)) != -1 {
		t.Fatal("out-of-range local id should map to -1")
	}
}

func TestWorkspaceEditing(t *testing.T) {
	e, _ := testEngine(t)
	w, err := e.WorkspaceFromLeaf(e.Tree().Leaves()[0])
	if err != nil {
		t.Fatal(err)
	}
	n0 := w.Graph().NumNodes()
	// Add a node and connect it.
	nn := w.AddNode("Edited Author")
	if int(nn) != n0 {
		t.Fatalf("new node id %d want %d", nn, n0)
	}
	if w.OriginalOf(nn) != -1 {
		t.Fatal("edited node should have no original")
	}
	if err := w.AddEdge(0, nn, 2); err != nil {
		t.Fatal(err)
	}
	if !w.Graph().HasEdge(0, nn) {
		t.Fatal("edge not added")
	}
	if err := w.AddEdge(0, nn, 3); err != nil {
		t.Fatal(err)
	}
	if got := w.Graph().EdgeWeight(0, nn); got != 5 {
		t.Fatalf("reinforced weight %g want 5", got)
	}
	// Remove it again.
	if err := w.RemoveEdge(0, nn); err != nil {
		t.Fatal(err)
	}
	if w.Graph().HasEdge(0, nn) {
		t.Fatal("edge not removed")
	}
	if err := w.RemoveEdge(0, nn); err == nil {
		t.Fatal("double-remove accepted")
	}
	// Remove the node.
	before := w.Graph().NumNodes()
	if err := w.RemoveNode(nn); err != nil {
		t.Fatal(err)
	}
	if w.Graph().NumNodes() != before-1 {
		t.Fatal("node not removed")
	}
	if w.Edits() < 5 {
		t.Fatalf("edits=%d", w.Edits())
	}
	// Errors.
	if err := w.AddEdge(0, graph.NodeID(1<<20), 1); err == nil {
		t.Fatal("bad endpoint accepted")
	}
	if err := w.AddEdge(0, 1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := w.RemoveNode(graph.NodeID(1 << 20)); err == nil {
		t.Fatal("bad node accepted")
	}
}

func TestWorkspaceRemoveNodeKeepsMapping(t *testing.T) {
	e, _ := testEngine(t)
	w, err := e.WorkspaceFromLeaf(e.Tree().Leaves()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Remember original of local node 3, then remove local node 1.
	orig3 := w.OriginalOf(3)
	if err := w.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	// orig3 now lives at local 2.
	if w.LocalOf(orig3) != 2 {
		t.Fatalf("mapping after removal: LocalOf=%d want 2", w.LocalOf(orig3))
	}
	if w.OriginalOf(2) != orig3 {
		t.Fatal("OriginalOf not updated after removal")
	}
}

func TestWorkspaceExpandNode(t *testing.T) {
	e, ds := testEngine(t)
	// Jiawei Han's community: expanding him must pull in cross-community
	// co-authors (he has ~60, far more than one leaf holds).
	han := ds.Notables[dblp.NameJiaweiHan]
	leaf := e.Tree().LeafOf(han)
	w, err := e.WorkspaceFromLeaf(leaf)
	if err != nil {
		t.Fatal(err)
	}
	local := w.LocalOf(han)
	if local < 0 {
		t.Fatal("Han not in his own community workspace")
	}
	before := w.Graph().NumNodes()
	added, err := w.ExpandNode(local, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 {
		t.Fatal("expansion added nothing despite cross-community edges")
	}
	if len(added) > 8 {
		t.Fatalf("expansion added %d > maxNew", len(added))
	}
	if w.Graph().NumNodes() != before+len(added) {
		t.Fatal("node count inconsistent after expansion")
	}
	// Every added node connects to Han with the original weight.
	for _, nl := range added {
		if !w.Graph().HasEdge(local, nl) {
			t.Fatal("expanded neighbor not connected")
		}
		orig := w.OriginalOf(nl)
		if orig < 0 {
			t.Fatal("expanded node lost its original id")
		}
		if w.Graph().EdgeWeight(local, nl) != ds.Graph.EdgeWeight(han, orig) {
			t.Fatal("expanded edge weight differs from the full graph")
		}
		if w.Graph().Label(nl) != ds.Graph.Label(orig) {
			t.Fatal("expanded node label differs")
		}
	}
	// Expanding an edited-in node fails.
	nn := w.AddNode("x")
	if _, err := w.ExpandNode(nn, 4); err == nil {
		t.Fatal("expanded a node with no original")
	}
}

func TestWorkspaceExpandPrefersHeavyEdges(t *testing.T) {
	e, ds := testEngine(t)
	han := ds.Notables[dblp.NameJiaweiHan]
	w, err := e.WorkspaceFromLeaf(e.Tree().LeafOf(han))
	if err != nil {
		t.Fatal(err)
	}
	local := w.LocalOf(han)
	wang := ds.Notables[dblp.NameKeWang]
	// If Ke Wang is outside the community, a 1-node expansion must pick
	// him first (weight 18 edge dominates).
	if w.LocalOf(wang) < 0 {
		added, err := w.ExpandNode(local, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(added) != 1 || w.OriginalOf(added[0]) != wang {
			t.Fatalf("expansion should pull Ke Wang first, got %v", added)
		}
	}
}

func TestWorkspaceRender(t *testing.T) {
	e, _ := testEngine(t)
	w, err := e.WorkspaceFromLeaf(e.Tree().Leaves()[0])
	if err != nil {
		t.Fatal(err)
	}
	svg := w.Render(500, []graph.NodeID{0}, 1)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "<circle") {
		t.Fatal("workspace render empty")
	}
}
