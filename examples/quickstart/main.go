// Quickstart: build a G-Tree over a small synthetic co-authorship graph,
// navigate it with Tomahawk scenes, persist it to a single file, and page
// a community back from disk.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	gmine "repro"
)

func main() {
	// 1. A small dataset (~3k authors, deterministic).
	ds := gmine.SmallDBLP()
	fmt.Println("dataset:", ds.Describe())

	// 2. Build the hierarchy: 3-way partitioning, 3 levels.
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Tree().ComputeStats()
	fmt.Printf("hierarchy: %d communities, %d leaves, avg leaf %.1f nodes\n",
		st.Communities, st.Leaves, st.AvgLeafSize)

	// 3. Navigate: focus the first child and render its Tomahawk scene.
	focus := eng.Tree().Node(eng.Tree().Root()).Children[0]
	scene, err := eng.SceneAt(focus, gmine.TomahawkOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("focused s%03d: %d children, %d siblings, %d connectivity edges displayed\n",
		focus, len(scene.Children), len(scene.Siblings), len(scene.Edges))
	svg, err := eng.RenderSceneAt(focus, 900, gmine.TomahawkOptions{Grandchildren: true})
	if err != nil {
		log.Fatal(err)
	}
	out := filepath.Join(os.TempDir(), "gmine-quickstart-scene.svg")
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("scene SVG:", out)

	// 4. Persist to a single file and reopen disk-backed.
	treePath := filepath.Join(os.TempDir(), "gmine-quickstart.gtree")
	if err := eng.SaveTree(treePath, 0); err != nil {
		log.Fatal(err)
	}
	disk, err := gmine.Open(treePath, 128)
	if err != nil {
		log.Fatal(err)
	}
	defer disk.Close()

	// 5. Label query + on-demand leaf load from disk.
	hits, err := disk.FindLabel(gmine.NameJiaweiHan)
	if err != nil {
		log.Fatal(err)
	}
	if len(hits) == 1 {
		h := hits[0]
		sub, _, err := disk.LeafSubgraph(h.Leaf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s lives in community s%03d (%d authors loaded on demand)\n",
			h.Label, h.Leaf, sub.NumNodes())
		stats := disk.Store().PoolStats()
		fmt.Printf("buffer pool after one leaf load: %d misses, %d hits\n", stats.Misses, stats.Hits)
	}
}
