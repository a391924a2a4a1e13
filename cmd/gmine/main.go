// Command gmine is the command-line interface to the GMine reproduction:
// generate the synthetic DBLP dataset, build single-file G-Trees, inspect
// and navigate hierarchies, query labels, extract connection subgraphs,
// compute mining metrics, render SVG scenes, and run the paper's
// experiment suite.
//
// Usage:
//
//	gmine generate  -scale 0.1 -seed 1 -out dblp.edges
//	gmine build     -in dblp.edges -out dblp.gtree -k 5 -levels 5 -seed 1
//	gmine info      -tree dblp.gtree
//	gmine query     -tree dblp.gtree -label "Jiawei Han"
//	gmine navigate  -tree dblp.gtree -path 0,1 -svg scene.svg
//	gmine metrics   -tree dblp.gtree -community 12
//	gmine extract   -in dblp.edges -labels "Philip S. Yu,Flip Korn" -budget 30 -svg out.svg
//	gmine repro     -exp all -scale 0.1 -dir artifacts/
//	gmine serve     -addr :8080 -synthetic 0.05 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/partition"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "navigate":
		err = cmdNavigate(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gmine: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmine:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `gmine - scalable interactive graph visualization and mining (VLDB'06 reproduction)

commands:
  generate   create a synthetic DBLP co-authorship edge list
  build      build a single-file G-Tree from an edge list
  info       summarize a G-Tree file
  query      locate an author in the hierarchy by label
  navigate   focus-walk the hierarchy and render the Tomahawk scene
  metrics    compute §III.B mining metrics on a community
  extract    extract a multi-source connection subgraph
  stats      whole-graph statistics (degrees, components, ANF hop plot)
  repro      run the paper's experiment suite (E1..E10, ABL)
  serve      host engine sessions behind a concurrent HTTP/JSON API

run "gmine <command> -h" for flags.
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	scale := fs.Float64("scale", 0.1, "fraction of the full DBLP size (1.0 = 315,688 authors)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "dblp.edges", "output edge-list path")
	fs.Parse(args)
	ds := dblp.Generate(dblp.Config{Scale: *scale, Seed: *seed})
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, ds.Graph); err != nil {
		return err
	}
	fmt.Printf("%s -> %s\n", ds.Describe(), *out)
	return nil
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	g.Dedup()
	return g, nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "dblp.edges", "input edge list")
	out := fs.String("out", "dblp.gtree", "output G-Tree file")
	k := fs.Int("k", 5, "partitions per level")
	levels := fs.Int("levels", 5, "hierarchy levels including the root")
	seed := fs.Int64("seed", 1, "partitioning seed")
	pageSize := fs.Int("pagesize", 0, "storage page size (0 = default 4096)")
	fs.Parse(args)
	t0 := time.Now()
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	t1 := time.Now()
	// The tree goes straight to the file: an engine over it would save it
	// into memory first and serve nothing.
	tr, err := gtree.Build(g, gtree.BuildOptions{K: *k, Levels: *levels, Partition: partition.Options{Seed: *seed}})
	if err != nil {
		return err
	}
	t2 := time.Now()
	if err := gtree.Save(tr, g, *out, *pageSize); err != nil {
		return err
	}
	t3 := time.Now()
	st := tr.ComputeStats()
	fmt.Printf("built G-Tree: %d communities (%d leaves, avg %.1f nodes) in %d levels -> %s (read %s / build %s / save %s)\n",
		st.Communities, st.Leaves, st.AvgLeafSize, st.Levels, *out,
		t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond), t3.Sub(t2).Round(time.Millisecond))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	tree := fs.String("tree", "dblp.gtree", "G-Tree file")
	fs.Parse(args)
	eng, err := core.OpenEngine(*tree, 0)
	if err != nil {
		return err
	}
	defer eng.Close()
	t := eng.Tree()
	st := t.ComputeStats()
	fmt.Printf("G-Tree %s\n", *tree)
	fmt.Printf("  graph nodes:    %d\n", eng.Store().GraphNodes())
	fmt.Printf("  communities:    %d (%d leaves)\n", st.Communities, st.Leaves)
	fmt.Printf("  levels:         %d, fanout K=%d\n", st.Levels, t.K)
	fmt.Printf("  per level:      %v\n", st.PerLevel)
	fmt.Printf("  leaf size:      avg %.1f (min %d, max %d)\n", st.AvgLeafSize, st.MinLeafSize, st.MaxLeafSize)
	fmt.Printf("  conn edges:     %d\n", st.ConnEdges)
	fmt.Printf("  file pages:     %d\n", eng.Store().FilePages())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	tree := fs.String("tree", "dblp.gtree", "G-Tree file")
	label := fs.String("label", "", "exact author label")
	prefix := fs.String("prefix", "", "label prefix (alternative to -label)")
	limit := fs.Int("limit", 10, "max prefix hits")
	fs.Parse(args)
	eng, err := core.OpenEngine(*tree, 0)
	if err != nil {
		return err
	}
	defer eng.Close()
	var hits []gtree.LabelHit
	switch {
	case *label != "":
		hits, err = eng.FindLabel(*label)
	case *prefix != "":
		hits, err = eng.Store().SearchLabelPrefix(*prefix, *limit)
	default:
		return fmt.Errorf("need -label or -prefix")
	}
	if err != nil {
		return err
	}
	if len(hits) == 0 {
		fmt.Println("no matches")
		return nil
	}
	for _, h := range hits {
		fmt.Printf("%-30s node %-8d community path: %s\n", h.Label, h.Node, pathString(h.Path))
	}
	return nil
}

func pathString(path []gtree.TreeID) string {
	parts := make([]string, len(path))
	for i, id := range path {
		parts[i] = fmt.Sprintf("s%03d", id)
	}
	return strings.Join(parts, " > ")
}

func cmdNavigate(args []string) error {
	fs := flag.NewFlagSet("navigate", flag.ExitOnError)
	tree := fs.String("tree", "dblp.gtree", "G-Tree file")
	path := fs.String("path", "", "comma-separated child indices from the root (e.g. 0,2,1)")
	community := fs.Int("community", -1, "focus a community id directly")
	svg := fs.String("svg", "", "write the Tomahawk scene SVG here")
	deep := fs.Bool("deep", false, "include grandchildren (Fig 3(a) style)")
	fs.Parse(args)
	eng, err := core.OpenEngine(*tree, 0)
	if err != nil {
		return err
	}
	defer eng.Close()
	if *community >= 0 {
		if err := eng.FocusOn(gtree.TreeID(*community)); err != nil {
			return err
		}
	} else if *path != "" {
		for _, part := range strings.Split(*path, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad path element %q", part)
			}
			if err := eng.FocusChild(idx); err != nil {
				return err
			}
		}
	}
	t := eng.Tree()
	scene := eng.Scene(gtree.TomahawkOptions{Grandchildren: *deep})
	n := t.Node(eng.Focus())
	fmt.Printf("focus s%03d: level %d, %d nodes, %d children, %d siblings shown, %d scene edges\n",
		eng.Focus(), n.Level, n.Size, len(scene.Children), len(scene.Siblings), len(scene.Edges))
	for _, e := range scene.Edges {
		fmt.Printf("  connectivity s%03d - s%03d: %d edges (weight %.0f)\n", e.A, e.B, e.Count, e.Weight)
	}
	if *svg != "" {
		doc := eng.RenderScene(900, gtree.TomahawkOptions{Grandchildren: *deep})
		if err := os.WriteFile(*svg, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("scene written to %s\n", *svg)
	}
	return nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	tree := fs.String("tree", "dblp.gtree", "G-Tree file")
	community := fs.Int("community", -1, "leaf community id (default: largest leaf)")
	seed := fs.Int64("seed", 1, "sampling seed")
	fs.Parse(args)
	eng, err := core.OpenEngine(*tree, 0)
	if err != nil {
		return err
	}
	defer eng.Close()
	t := eng.Tree()
	id := gtree.TreeID(*community)
	if *community < 0 {
		best := -1
		for _, l := range t.Leaves() {
			if t.Node(l).Size > best {
				best = t.Node(l).Size
				id = l
			}
		}
	}
	rep, err := eng.MetricsReport(id, *seed)
	if err != nil {
		return err
	}
	sub, _, err := eng.LeafSubgraph(id)
	if err != nil {
		return err
	}
	fmt.Printf("community s%03d: %d nodes, %d edges\n", id, rep.Nodes, rep.Edges)
	fmt.Printf("degree distribution: min %d max %d mean %.2f power-law exp %.2f\n",
		rep.Degree.Min, rep.Degree.Max, rep.Degree.Mean, rep.Degree.PowerLawExponent)
	fmt.Printf("hops: effective diameter %d, max %d\n", rep.EffectiveDiameter, rep.MaxHops)
	fmt.Printf("weak components: %d, strong components: %d\n", rep.WeakComponents, rep.StrongComponents)
	fmt.Println("top PageRank:")
	for i, u := range rep.TopRanked[:minInt(5, len(rep.TopRanked))] {
		label := sub.Label(u)
		if label == "" {
			label = fmt.Sprintf("node %d", u)
		}
		fmt.Printf("  %d. %-30s %.5f\n", i+1, label, rep.PageRank[u])
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "dblp.edges", "input edge list")
	labels := fs.String("labels", "", "comma-separated source labels")
	ids := fs.String("ids", "", "comma-separated source node ids (alternative)")
	budget := fs.Int("budget", 30, "output node budget")
	restart := fs.Float64("restart", 0.15, "RWR restart probability")
	fs.Int("parallel", 0, "accepted and ignored: the per-source RWR solves share one sweep per iteration, there is no worker pool to size")
	svg := fs.String("svg", "", "write extraction SVG here")
	seed := fs.Int64("seed", 1, "layout seed")
	fs.Parse(args)
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	var sources []graph.NodeID
	switch {
	case *labels != "":
		for _, l := range strings.Split(*labels, ",") {
			l = strings.TrimSpace(l)
			id := g.FindLabel(l)
			if id < 0 {
				return fmt.Errorf("label %q not found", l)
			}
			sources = append(sources, id)
		}
	case *ids != "":
		for _, s := range strings.Split(*ids, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad id %q", s)
			}
			sources = append(sources, graph.NodeID(v))
		}
	default:
		return fmt.Errorf("need -labels or -ids")
	}
	res, err := extract.ConnectionSubgraph(g, sources, extract.Options{
		Budget: *budget,
		RWR:    extract.RWROptions{Restart: *restart},
	})
	if err != nil {
		return err
	}
	fmt.Printf("extracted %d nodes, %d edges (graph: %d nodes) in %d rounds; goodness %.3g\n",
		res.Subgraph.NumNodes(), res.Subgraph.NumEdges(), g.NumNodes(), res.Iterations, res.TotalGoodness)
	// Describe the neighborhood of each source, like GMine's pop-ups.
	for _, li := range res.Sources {
		fmt.Printf("source %s:\n", res.Subgraph.Label(li))
		for _, e := range res.Subgraph.Neighbors(li) {
			fmt.Printf("  - %s (weight %.0f)\n", res.Subgraph.Label(e.To), e.Weight)
		}
	}
	if *svg != "" {
		doc := core.RenderExtraction(res, 800, *seed)
		if err := os.WriteFile(*svg, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("extraction scene written to %s\n", *svg)
	}
	// A compact metrics report of the extracted subgraph.
	rep := analysis.Report(res.Subgraph, 0, *seed)
	fmt.Printf("subgraph: %d weak components, effective diameter %d\n",
		rep.WeakComponents, rep.EffectiveDiameter)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "dblp.edges", "input edge list")
	anfK := fs.Int("anfk", 32, "ANF sketch count (0 disables the hop plot)")
	seed := fs.Int64("seed", 1, "sketch seed")
	fs.Parse(args)
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	adj := graph.ToCSR(g)
	rep := analysis.ReportAdj(adj, g.Directed())
	deg := rep.Degree
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("degree: min %d max %d mean %.2f power-law exp %.2f\n",
		deg.Min, deg.Max, deg.Mean, deg.PowerLawExponent)
	fmt.Printf("weak components: %d (giant: %d nodes, %.1f%%)\n",
		rep.WeakComponents, rep.LargestComponent, 100*float64(rep.LargestComponent)/float64(g.NumNodes()))
	if *anfK > 0 {
		anf := analysis.ComputeANF(adj, g.Directed(), analysis.ANFOptions{K: *anfK, Seed: *seed})
		fmt.Printf("ANF effective diameter: %d (sketch K=%d)\n", anf.EffectiveDiameter, *anfK)
		fmt.Println("hop plot (h -> reachable pairs):")
		for h, c := range anf.Counts {
			fmt.Printf("  %2d  %.3g\n", h, c)
		}
	}
	return nil
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment id (E1..E10, ABL) or 'all'")
	scale := fs.Float64("scale", 0.1, "dataset scale (1.0 = paper size)")
	seed := fs.Int64("seed", 1, "seed")
	k := fs.Int("k", 5, "hierarchy fanout")
	levels := fs.Int("levels", 5, "hierarchy levels")
	dir := fs.String("dir", "", "artifact directory (default: temp)")
	fs.Parse(args)
	cfg := &experiments.Config{Scale: *scale, Seed: *seed, K: *k, Levels: *levels, Dir: *dir, Out: os.Stdout}
	if *exp == "all" {
		return experiments.RunAll(cfg)
	}
	return experiments.RunByID(cfg, strings.ToUpper(*exp))
}
