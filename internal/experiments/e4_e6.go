package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

// E4Row is one sweep point of the Tomahawk experiment.
type E4Row struct {
	Nodes        int
	TomahawkSize int
	FullLevel    int
}

// E4Result records the Tomahawk scene-size experiment.
type E4Result struct {
	Rows  []E4Row
	Bound int // Tomahawk bound: depth + 2K (+1 focus)
}

// RunE4 reproduces Fig 4: the Tomahawk principle keeps the displayed
// community count bounded by the fanout and depth — independent of graph
// size — while showing everything at the focus level grows with the graph.
func RunE4(cfg *Config) (*E4Result, error) {
	*cfg = cfg.withDefaults()
	res := &E4Result{Bound: (cfg.Levels - 1) + 2*cfg.K + 1}
	scales := []float64{cfg.Scale / 4, cfg.Scale / 2, cfg.Scale}
	cfg.printf("%-10s %-16s %-16s\n", "nodes", "tomahawk scene", "full-level scene")
	for _, s := range scales {
		ds := dblp.Generate(dblp.Config{Scale: s, Seed: cfg.Seed})
		eng, err := core.BuildEngine(ds.Graph, core.BuildConfig{K: cfg.K, Levels: cfg.Levels, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		t := eng.Tree()
		// Focus on the deepest leaf: the level with the most communities,
		// where the contrast with "draw the whole level" is largest.
		focus := t.Leaves()[0]
		for _, l := range t.Leaves() {
			if t.Node(l).Level > t.Node(focus).Level {
				focus = l
			}
		}
		tom := t.Tomahawk(focus, gtree.TomahawkOptions{})
		full := t.FullLevelScene(focus)
		row := E4Row{Nodes: ds.Graph.NumNodes(), TomahawkSize: tom.Size(), FullLevel: full.Size()}
		res.Rows = append(res.Rows, row)
		cfg.printf("%-10d %-16d %-16d\n", row.Nodes, row.TomahawkSize, row.FullLevel)
	}
	cfg.printf("tomahawk bound (ancestors + focus + siblings + children) = %d: flat in n; full-level grows\n", res.Bound)
	return res, nil
}

// E5Result records the Fig 5 extraction.
type E5Result struct {
	GraphNodes      int
	OutputNodes     int
	ReductionRatio  float64
	Sources         []string
	JagadishIn      bool
	JagadishAdjKorn bool
	ExtractTime     time.Duration
	TotalGoodness   float64
	SVGPath         string
}

// RunE5 reproduces Fig 5: a 30-node connection subgraph for the query set
// {Philip S. Yu, Flip Korn, Minos N. Garofalakis}, with H. V. Jagadish
// expected near Flip Korn, and an output roughly a thousand-fold smaller
// than the graph at full scale.
func RunE5(cfg *Config) (*E5Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	res := &E5Result{
		GraphNodes: cfg.dataset().Graph.NumNodes(),
		Sources:    []string{dblp.NamePhilipYu, dblp.NameFlipKorn, dblp.NameGarofalakis},
	}
	var out *extract.Result
	res.ExtractTime, err = timeIt(func() error {
		var err error
		out, err = eng.ExtractByLabels(res.Sources, extract.Options{Budget: 30, RWR: extract.RWROptions{Restart: 0.15}})
		return err
	})
	if err != nil {
		return nil, err
	}
	res.OutputNodes = out.Subgraph.NumNodes()
	res.ReductionRatio = float64(res.GraphNodes) / float64(res.OutputNodes)
	res.TotalGoodness = out.TotalGoodness
	var jaga, korn graph.NodeID = -1, -1
	for u := 0; u < out.Subgraph.NumNodes(); u++ {
		switch out.Subgraph.Label(graph.NodeID(u)) {
		case dblp.NameJagadish:
			jaga = graph.NodeID(u)
		case dblp.NameFlipKorn:
			korn = graph.NodeID(u)
		}
	}
	res.JagadishIn = jaga >= 0
	if jaga >= 0 && korn >= 0 {
		res.JagadishAdjKorn = out.Subgraph.HasEdge(jaga, korn)
	}
	res.SVGPath, err = cfg.writeArtifact("fig5_extraction.svg", core.RenderExtraction(out, 800, cfg.Seed))
	if err != nil {
		return nil, err
	}
	cfg.printf("query: %v, budget 30\n", res.Sources)
	cfg.printf("output: %d nodes from a %d-node graph — %.0fx smaller (paper: thousand-fold at full scale)\n",
		res.OutputNodes, res.GraphNodes, res.ReductionRatio)
	cfg.printf("H. V. Jagadish present: %v, adjacent to Flip Korn: %v (paper: yes, yes)\n",
		res.JagadishIn, res.JagadishAdjKorn)
	cfg.printf("extraction time %v, captured goodness %.3g, artifact %s\n",
		res.ExtractTime, res.TotalGoodness, res.SVGPath)
	return res, nil
}

// E6Result records the combined pipeline.
type E6Result struct {
	ExtractedNodes int
	TopCommunities int
	LevelCounts    []int
	DeepLeafNodes  int
	SVGPaths       []string
}

// RunE6 reproduces Fig 6: extract a 200-node subgraph from DBLP, partition
// it into 3 communities, then navigate down the hierarchy to the raw
// nodes.
func RunE6(cfg *Config) (*E6Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	ds := cfg.dataset()
	sources := []graph.NodeID{
		ds.Notables[dblp.NamePhilipYu],
		ds.Notables[dblp.NameFlipKorn],
		ds.Notables[dblp.NameGarofalakis],
	}
	sub, out, err := eng.ExtractAndBuild(sources,
		extract.Options{Budget: 200},
		core.BuildConfig{K: 3, Levels: 3, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &E6Result{ExtractedNodes: out.Subgraph.NumNodes()}
	t := sub.Tree()
	st := t.ComputeStats()
	res.LevelCounts = st.PerLevel
	res.TopCommunities = len(t.Node(t.Root()).Children)

	// (a) the raw extracted subgraph.
	p, err := cfg.writeArtifact("fig6a_extracted.svg", core.RenderExtraction(out, 800, cfg.Seed))
	if err != nil {
		return nil, err
	}
	res.SVGPaths = append(res.SVGPaths, p)
	// (b) three communities, and (c) one level down.
	names, ids := []string{"fig6b_partitioned.svg", "fig6c_level2.svg"}, []gtree.TreeID{t.Root()}
	if ch := t.Node(t.Root()).Children; len(ch) > 0 {
		ids = append(ids, ch[0])
	}
	for i, id := range ids {
		svg, err := sub.RenderSceneAt(id, 800, gtree.TomahawkOptions{})
		if err == nil {
			p, err = cfg.writeArtifact(names[i], svg)
		}
		if err != nil {
			return nil, err
		}
		res.SVGPaths = append(res.SVGPaths, p)
	}
	// (d) down to the raw nodes of a leaf.
	var leaf gtree.TreeID = -1
	for _, l := range t.Leaves() {
		if t.Node(l).Size > 2 {
			leaf = l
			break
		}
	}
	if leaf >= 0 {
		lsub, _, err := sub.LeafSubgraph(leaf)
		if err != nil {
			return nil, err
		}
		res.DeepLeafNodes = lsub.NumNodes()
		svg, err := sub.RenderLeaf(leaf, 700, nil, cfg.Seed)
		if err != nil {
			return nil, err
		}
		p, err = cfg.writeArtifact("fig6d_leaf.svg", svg)
		if err != nil {
			return nil, err
		}
		res.SVGPaths = append(res.SVGPaths, p)
	}
	cfg.printf("(a) extracted %d nodes (paper: 200)\n", res.ExtractedNodes)
	cfg.printf("(b) partitioned into %d top communities (paper: 3)\n", res.TopCommunities)
	cfg.printf("(c,d) hierarchy per level %v; leaf inspected with %d raw nodes\n",
		res.LevelCounts, res.DeepLeafNodes)
	cfg.printf("artifacts: %v\n", res.SVGPaths)
	return res, nil
}
