// dblp-navigation replays the paper's Fig 3 session: explore the DBLP
// hierarchy top-down, query an author by name, expand his community and
// find his strongest collaborator.
//
// Run: go run ./examples/dblp-navigation [-scale 0.05]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	gmine "repro"
)

func main() {
	scale := flag.Float64("scale", 0.05, "dataset scale (1.0 = the paper's 315,688 authors)")
	flag.Parse()

	ds := gmine.GenerateDBLP(gmine.DBLPConfig{Scale: *scale, Seed: 1})
	fmt.Println("dataset:", ds.Describe())
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 5, Levels: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Fig 3(a): the root scene shows 5 first-level and 25 second-level
	// communities at once.
	t := eng.Tree()
	scene, err := eng.SceneAt(t.Root(), gmine.TomahawkOptions{Grandchildren: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(a) root scene: %d first-level + %d second-level communities\n",
		len(scene.Children), len(scene.Grandchildren))
	for _, c := range scene.Children {
		deg := 0
		for _, o := range scene.Children {
			if o != c {
				deg += t.Connectivity(c, o).Count
			}
		}
		fmt.Printf("    s%03d: %6d authors, %5d cross edges to the other communities\n",
			c, t.Node(c).Size, deg)
	}
	dir := os.TempDir()
	svg, err := eng.RenderSceneAt(t.Root(), 900, gmine.TomahawkOptions{Grandchildren: true})
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "fig3a.svg"), []byte(svg), 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}

	// Fig 3(d): label query.
	hits, err := eng.FindLabel(gmine.NameJiaweiHan)
	if err != nil || len(hits) != 1 {
		log.Fatalf("label query failed: %v (%d hits)", err, len(hits))
	}
	han := hits[0]
	fmt.Printf("(d) located %q: community path", han.Label)
	for _, id := range han.Path {
		fmt.Printf(" > s%03d", id)
	}
	fmt.Println()

	// Fig 3(e): his subgraph community, loaded and drawn.
	sub, members, err := eng.LeafSubgraph(han.Leaf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(e) community s%03d holds %d authors and %d co-author edges\n",
		han.Leaf, sub.NumNodes(), sub.NumEdges())
	svg, err = eng.RenderLeaf(han.Leaf, 800, []gmine.NodeID{han.Node}, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fig3e.svg"), []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}

	// Fig 3(f): interact with the subgraph to find the main contributor.
	var hanLocal gmine.NodeID = -1
	for i, u := range members {
		if u == han.Node {
			hanLocal = gmine.NodeID(i)
		}
	}
	bestW, bestName := 0.0, ""
	for _, e := range sub.Neighbors(hanLocal) {
		if e.Weight > bestW {
			bestW, bestName = e.Weight, sub.Label(e.To)
		}
	}
	for _, e := range ds.Graph.Neighbors(han.Node) { // edge expansion beyond the community
		if e.Weight > bestW {
			bestW, bestName = e.Weight, ds.Graph.Label(e.To)
		}
	}
	fmt.Printf("(f) strongest collaborator of Jiawei Han: %s (%.0f joint papers)\n", bestName, bestW)
	fmt.Println("SVGs written to", dir)
}
