package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/obs"
	"repro/internal/partition"
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

// TestResaveIsExact: SaveTree re-encodes from the store, so an engine
// opened from a file saves that file again byte for byte, and a built
// engine saves what gtree.Save writes from the input graph (gmine build's
// path), at a small and at the default page size.
func TestResaveIsExact(t *testing.T) {
	ds := dblp.SmallFixture()
	g := ds.Graph
	built, err := BuildEngine(g, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.Build(g, gtree.BuildOptions{K: 3, Levels: 3, Partition: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, ps := range []int{256, 4096} {
		direct := filepath.Join(dir, fmt.Sprintf("direct-%d.gtree", ps))
		if err := gtree.Save(tree, graph.ToCSR(g), g.Directed(), g.Label, direct, ps); err != nil {
			t.Fatal(err)
		}
		first := filepath.Join(dir, fmt.Sprintf("built-%d.gtree", ps))
		if err := built.SaveTree(first, ps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(read(first), read(direct)) {
			t.Fatalf("page size %d: the built engine's SaveTree differs from gtree.Save of its graph", ps)
		}
		opened, err := OpenEngine(first, 16)
		if err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(dir, fmt.Sprintf("opened-%d.gtree", ps))
		err = opened.SaveTree(again, ps)
		opened.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(read(again), read(first)) {
			t.Fatalf("page size %d: an opened engine's SaveTree differs from the file it was opened from", ps)
		}
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
