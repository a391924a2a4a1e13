package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/obs"
)

// builtAndOpened builds g into an engine and opens a second engine from
// the file the first one saves.
func builtAndOpened(t *testing.T, g *graph.Graph) (built, opened *Engine) {
	t.Helper()
	built, err := BuildEngine(g, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shape.gtree")
	if err := built.SaveTree(path, 0); err != nil {
		t.Fatal(err)
	}
	opened, err = OpenEngine(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	return built, opened
}

// popupDigests hashes NodeInfo of every node, and the workspace after
// expanding every node by 5 inside the workspace of its leaf (leaf taken
// from the built tree, which knows it).
func popupDigests(t *testing.T, e *Engine, leafOf func(graph.NodeID) gtree.TreeID, n int) (info, expand string) {
	t.Helper()
	hi, he := sha256.New(), sha256.New()
	var b []byte
	ids := func(vs []graph.NodeID) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		ni, err := e.NodeInfo(u)
		if err != nil {
			t.Fatal(err)
		}
		js, _ := json.Marshal(ni)
		hi.Write(js)
		w, err := e.WorkspaceFromLeaf(leafOf(u))
		if err != nil {
			t.Fatal(err)
		}
		added, err := w.ExpandNode(w.LocalOf(u), 5)
		if err != nil {
			t.Fatal(err)
		}
		b = b[:0]
		ids([]graph.NodeID{u, graph.NodeID(w.Edits())})
		ids(added)
		ids(w.Members())
		g := w.Graph()
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			b = append(append(b, g.Label(v)...), 0)
			for _, ed := range g.Neighbors(v) {
				b = binary.LittleEndian.AppendUint32(b, uint32(ed.To))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ed.Weight))
			}
			b = append(b, 0xff)
		}
		he.Write(b)
	}
	return fmt.Sprintf("%x", hi.Sum(nil)), fmt.Sprintf("%x", he.Sum(nil))
}

// TestNodeInfoAndExpandGolden pins the pop-up and edge expansion of every
// node of the small fixture on a built engine. The digests were taken
// from the memory-only implementation these now replace, which read
// g.Neighbors; the rows now come through a query view's cursor.
func TestNodeInfoAndExpandGolden(t *testing.T) {
	ds := dblp.SmallFixture()
	e, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, expand := popupDigests(t, e, e.Tree().LeafOf, ds.Graph.NumNodes())
	if want := "2ca7bda210d61a9f44ebdc377108d507fb970bdf8540447c4e81bfd6c091eafe"; info != want {
		t.Errorf("NodeInfo digest %s, want %s", info, want)
	}
	if want := "bb73286e8424edaf3172413c88e1c794287de02a80f69cbf593fc4e906a3106f"; expand != want {
		t.Errorf("ExpandNode digest %s, want %s", expand, want)
	}
}

// TestNodeInfoOpenedEngine: pop-ups and edge expansion run on an engine
// opened from a file and agree with the built engine's, except that an
// opened tree carries no leaf membership, so Leaf and Path are unknown.
func TestNodeInfoOpenedEngine(t *testing.T) {
	ds := dblp.SmallFixture()
	built, opened := builtAndOpened(t, ds.Graph)
	for u := graph.NodeID(0); int(u) < ds.Graph.NumNodes(); u += 7 {
		want, err := built.NodeInfo(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opened.NodeInfo(u)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leaf != gtree.InvalidTree || got.Path != nil {
			t.Fatalf("node %d: opened engine reports leaf %d path %v", u, got.Leaf, got.Path)
		}
		want.Leaf, want.Path = gtree.InvalidTree, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: opened %+v, built %+v", u, got, want)
		}
	}
	if _, err := opened.NodeInfo(graph.NodeID(ds.Graph.NumNodes())); err == nil {
		t.Fatal("accepted out-of-range node")
	}
	wantInfo, wantExpand := popupDigests(t, built, built.Tree().LeafOf, 200)
	gotInfo, gotExpand := popupDigests(t, opened, built.Tree().LeafOf, 200)
	if gotExpand != wantExpand {
		t.Fatal("edge expansion differs between the opened and the built engine")
	}
	if gotInfo == wantInfo {
		t.Fatal("opened engine's pop-ups carry leaf paths it cannot know")
	}
}

// TestLabelSearchContract: built and opened engines answer label queries
// from the same persisted index, so their hits are identical — duplicate
// labels included, ordered by (label, node), every hit when limit <= 0.
func TestLabelSearchContract(t *testing.T) {
	ds := dblp.SmallFixture()
	g := ds.Graph
	// Inject duplicates: one new label on several nodes, and notable
	// labels repeated on other nodes, set in descending node order.
	for _, u := range []graph.NodeID{2900, 1500, 40, 7} {
		g.SetLabel(u, "Dup Author")
	}
	g.SetLabel(3001, dblp.NameJiaweiHan)
	g.SetLabel(12, dblp.NameJiaweiHan)
	built, opened := builtAndOpened(t, g)
	for _, label := range []string{"Dup Author", dblp.NameJiaweiHan, dblp.NamePhilipYu, "No Such Author"} {
		a, err := built.FindLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opened.FindLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("FindLabel(%q): built %v, opened %v", label, a, b)
		}
	}
	if hits, _ := built.FindLabel("Dup Author"); len(hits) != 4 || hits[0].Node != 7 || hits[3].Node != 2900 {
		t.Fatalf("FindLabel(Dup Author) = %v, want nodes 7, 40, 1500, 2900", hits)
	}
	for _, prefix := range []string{"", "Dup", "J", dblp.NameJiaweiHan, "Zzz"} {
		all, err := built.SearchLabelPrefix(prefix, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(all); i++ {
			p, q := all[i-1], all[i]
			if p.Label > q.Label || (p.Label == q.Label && p.Node >= q.Node) {
				t.Fatalf("prefix %q: hits %d and %d out of (label, node) order: %v, %v", prefix, i-1, i, p, q)
			}
		}
		for _, limit := range []int{0, 1, 3, 10} {
			a, err := built.SearchLabelPrefix(prefix, limit)
			if err != nil {
				t.Fatal(err)
			}
			b, err := opened.SearchLabelPrefix(prefix, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("SearchLabelPrefix(%q, %d): built %v, opened %v", prefix, limit, a, b)
			}
			want := all
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("SearchLabelPrefix(%q, %d) is not the first %d of all %d hits", prefix, limit, len(want), len(all))
			}
		}
	}
	if all, _ := built.SearchLabelPrefix("", 0); len(all) != g.NumNodes() {
		t.Fatalf("SearchLabelPrefix(\"\", 0) returned %d hits, want every one of %d labeled nodes", len(all), g.NumNodes())
	}
}

// TestBuiltEngineFirstExtractIsResident: BuildEngine promotes the whole
// graph at open, so the very first extraction reads the resident tier —
// no sweep reads the file and no cursor pins a page.
func TestBuiltEngineFirstExtractIsResident(t *testing.T) {
	ds := dblp.SmallFixture()
	e, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("first")
	sources := []graph.NodeID{ds.Notables[dblp.NamePhilipYu], ds.Notables[dblp.NameFlipKorn]}
	if _, err := e.ExtractTraced(context.Background(), tr, sources, extract.Options{Budget: 20}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"tier.resident": 1, "sweep.reads": 0, "sweep.pages": 0, "pool.pins": 0} {
		if got := tr.CountValue(name); got != want {
			t.Errorf("first extraction: %s = %d, want %d", name, got, want)
		}
	}
	if ti := e.Store().TierInfo(); ti == nil || ti.Promotions != 1 || ti.Misses != 0 {
		t.Fatalf("tier after the first query: %+v, want one promotion at open and no paged query", ti)
	}
}
