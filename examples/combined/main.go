// combined reproduces Fig 6: connection subgraph extraction combined with
// communities-within-communities visualization — extract a 200-node
// subgraph of interest from DBLP, hierarchically partition it into 3
// communities, and walk down the hierarchy to the raw nodes.
//
// Run: go run ./examples/combined [-scale 0.05]
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
	scale := flag.Float64("scale", 0.05, "dataset scale")
	flag.Parse()

	ds := gmine.GenerateDBLP(gmine.DBLPConfig{Scale: *scale, Seed: 1})
	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 5, Levels: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	sources := []gmine.NodeID{
		ds.Notables[gmine.NamePhilipYu],
		ds.Notables[gmine.NameFlipKorn],
		ds.Notables[gmine.NameGarofalakis],
	}
	// (a) 200-node subgraph extracted from the DBLP dataset...
	sub, res, err := eng.ExtractAndBuild(sources,
		gmine.ExtractOptions{Budget: 200},
		gmine.BuildConfig{K: 3, Levels: 3, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(a) extracted subgraph: %d nodes, %d edges\n",
		res.Subgraph.NumNodes(), res.Subgraph.NumEdges())

	dir := os.TempDir()
	write := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("    wrote", path)
	}
	write("fig6a.svg", gmine.RenderExtraction(res, 800, 1))

	// (b) ...presented as three partitions...
	t := sub.Tree()
	fmt.Printf("(b) partitioned into %d top-level communities:\n", len(t.Node(t.Root()).Children))
	for _, c := range t.Node(t.Root()).Children {
		fmt.Printf("    s%03d: %d nodes\n", c, t.Node(c).Size)
	}
	scene := func(name string, id gmine.TreeID) {
		svg, err := sub.RenderSceneAt(id, 800, gmine.TomahawkOptions{})
		if err != nil {
			log.Fatal(err)
		}
		write(name, svg)
	}
	scene("fig6b.svg", t.Root())

	// (c) one level down the hierarchy...
	child := t.Node(t.Root()).Children[0]
	fmt.Printf("(c) inside s%03d: %d sub-communities\n", child, len(t.Node(child).Children))
	scene("fig6c.svg", child)

	// (d) ...and another level down: the very nodes of the graph.
	for _, leaf := range t.Leaves() {
		if t.Node(leaf).Size < 3 {
			continue
		}
		lsub, _, err := sub.LeafSubgraph(leaf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(d) leaf s%03d reached: %d raw nodes, %d edges\n",
			leaf, lsub.NumNodes(), lsub.NumEdges())
		svg, err := sub.RenderLeaf(leaf, 700, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		write("fig6d.svg", svg)
		break
	}
}
