package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/render"
)

// E1Result records the G-Tree construction experiment.
type E1Result struct {
	Nodes, Edges int
	Stats        gtree.Stats
	BuildTime    time.Duration
	SaveTime     time.Duration
	FileBytes    int64
	PaperLeaves  int // 5^(Levels-1)
	PaperAvgLeaf float64
	TreePath     string
}

// RunE1 reproduces Fig 1 / §III.A: recursively partition the DBLP graph
// into a Levels-level, K-way G-Tree, store it in a single file, and
// compare the community counts against the paper's 5^4+1 = 626 with ~500
// nodes per community.
func RunE1(cfg *Config) (*E1Result, error) {
	*cfg = cfg.withDefaults()
	ds := cfg.dataset()
	res := &E1Result{Nodes: ds.Graph.NumNodes(), Edges: ds.Graph.NumEdges()}
	var eng *core.Engine
	bt, err := timeIt(func() error {
		e, err := cfg.engine()
		eng = e
		return err
	})
	if err != nil {
		return nil, err
	}
	res.BuildTime = bt
	res.Stats = eng.Tree().ComputeStats()
	paperLeaves := 1
	for i := 0; i < cfg.Levels-1; i++ {
		paperLeaves *= cfg.K
	}
	res.PaperLeaves = paperLeaves
	res.PaperAvgLeaf = float64(res.Nodes) / float64(paperLeaves)

	dir, err := cfg.artifactDir()
	if err != nil {
		return nil, err
	}
	res.TreePath = filepath.Join(dir, "dblp.gtree")
	st, err := timeIt(func() error { return eng.SaveTree(res.TreePath, 0) })
	if err != nil {
		return nil, err
	}
	res.SaveTime = st
	if fi, err := os.Stat(res.TreePath); err == nil {
		res.FileBytes = fi.Size()
	}

	cfg.printf("dataset: %s\n", ds.Describe())
	cfg.printf("paper:    n=315,688 e=1,659,853 (scale %.2f of that)\n", cfg.Scale)
	cfg.printf("hierarchy: K=%d Levels=%d -> %d communities (%d leaves), paper counts %d leaf communities + root = %d\n",
		cfg.K, cfg.Levels, res.Stats.Communities, res.Stats.Leaves, paperLeaves, paperLeaves+1)
	cfg.printf("leaf size: avg %.1f (min %d max %d); paper: ~500 at full scale (scaled: %.1f)\n",
		res.Stats.AvgLeafSize, res.Stats.MinLeafSize, res.Stats.MaxLeafSize, res.PaperAvgLeaf)
	cfg.printf("per level: %v communities\n", res.Stats.PerLevel)
	cfg.printf("build %v, save %v, single file %d KiB\n", res.BuildTime, res.SaveTime, res.FileBytes/1024)
	return res, nil
}

// E2Result records the drawing-vocabulary experiment.
type E2Result struct {
	LeafNodes       int
	LeafEdges       int
	CommunityNodes  int
	ConnEdges       int
	ExampleConn     gtree.ConnStat
	BruteForceConn  int
	SceneSVGPath    string
	SubgraphSVGPath string
}

// RunE2 reproduces Fig 2: the three drawing ingredients — conventional
// nodes+edges inside leaf communities, community nodes, and connectivity
// edges whose weight counts the original crossing edges — and verifies the
// connectivity-edge semantics against a brute-force count.
func RunE2(cfg *Config) (*E2Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	t := eng.Tree()
	res := &E2Result{}
	// A Tomahawk scene at the root shows community nodes + connectivity.
	scene := t.Tomahawk(t.Root(), gtree.TomahawkOptions{Grandchildren: true})
	res.CommunityNodes = scene.Size()
	res.ConnEdges = len(scene.Edges)
	// Verify one connectivity edge against brute force.
	if len(scene.Edges) > 0 {
		e := scene.Edges[0]
		res.ExampleConn = t.Connectivity(e.A, e.B)
		// The graph nodes under a community, read from its leaves' blobs.
		under := func(c gtree.TreeID) (map[graph.NodeID]bool, error) {
			set := map[graph.NodeID]bool{}
			for _, leaf := range t.Leaves() {
				if !slices.Contains(t.Path(leaf), c) {
					continue
				}
				_, members, err := eng.LeafSubgraph(leaf)
				if err != nil {
					return nil, err
				}
				for _, u := range members {
					set[u] = true
				}
			}
			return set, nil
		}
		inA, err := under(e.A)
		if err != nil {
			return nil, err
		}
		inB, err := under(e.B)
		if err != nil {
			return nil, err
		}
		cfg.dataset().Graph.Edges(func(u, v graph.NodeID, w float64) bool {
			if (inA[u] && inB[v]) || (inA[v] && inB[u]) {
				res.BruteForceConn++
			}
			return true
		})
	}
	// A leaf community shows conventional nodes and edges.
	leaf := t.Leaves()[0]
	sub, _, err := eng.LeafSubgraph(leaf)
	if err != nil {
		return nil, err
	}
	res.LeafNodes = sub.NumNodes()
	res.LeafEdges = sub.NumEdges()

	l := layout.LayoutScene(t, scene, 450)
	res.SceneSVGPath, err = cfg.writeArtifact("fig2_scene.svg", render.SceneSVG(t, scene, l, 900))
	if err != nil {
		return nil, err
	}
	pos := layout.ForceLayout(sub, layout.Circle{R: 280}, layout.ForceOptions{Seed: cfg.Seed})
	res.SubgraphSVGPath, err = cfg.writeArtifact("fig2_leaf.svg", render.SubgraphSVG(sub, pos, nil, 600))
	if err != nil {
		return nil, err
	}
	cfg.printf("community nodes displayed: %d, connectivity edges: %d\n", res.CommunityNodes, res.ConnEdges)
	cfg.printf("connectivity edge semantics: example edge count=%d, brute-force recount=%d (%s)\n",
		res.ExampleConn.Count, res.BruteForceConn, okness(res.ExampleConn.Count == res.BruteForceConn))
	cfg.printf("leaf community: %d conventional nodes, %d conventional edges\n", res.LeafNodes, res.LeafEdges)
	cfg.printf("artifacts: %s, %s\n", res.SceneSVGPath, res.SubgraphSVGPath)
	return res, nil
}

func okness(ok bool) string {
	if ok {
		return "MATCH"
	}
	return "MISMATCH"
}

// E3Result records the navigation walk-through.
type E3Result struct {
	TopCommunities      int
	SecondLevel         int
	ActiveCommunities   int
	IsolatedCommunities int
	OutlierPair         [2]string
	OutlierWeight       float64
	HanPath             string
	HanLeafSize         int
	HanTopCoauthor      string
	HanTopWeight        float64
	SVGPaths            []string
}

// RunE3 replays Fig 3's interactive session on the synthetic DBLP:
// (a) root scene with first- and second-level communities, classifying
// communities as highly-connected vs isolated; (b,c) focusing into a
// community and hunting the outlier connectivity edge (Miller–Stockton's
// single 1989 publication); (d) label query for Jiawei Han; (e) his leaf
// community subgraph; (f) his strongest co-author (Ke Wang).
func RunE3(cfg *Config) (*E3Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	ds := cfg.dataset()
	t := eng.Tree()
	res := &E3Result{}

	// (a) Root scene: K + K² communities.
	sceneA := t.Tomahawk(t.Root(), gtree.TomahawkOptions{Grandchildren: true})
	res.TopCommunities = len(sceneA.Children)
	res.SecondLevel = len(sceneA.Grandchildren)
	// Classify top communities: "highly connected to every other" vs
	// "relatively isolated" by connectivity-edge weight share.
	type connDeg struct {
		id  gtree.TreeID
		sum int
	}
	var tops []connDeg
	for _, a := range sceneA.Children {
		s := 0
		for _, b := range sceneA.Children {
			if a != b {
				s += t.Connectivity(a, b).Count
			}
		}
		tops = append(tops, connDeg{a, s})
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i].sum > tops[j].sum })
	median := tops[len(tops)/2].sum
	for _, td := range tops {
		if td.sum >= median && td.sum > 0 {
			res.ActiveCommunities++
		} else {
			res.IsolatedCommunities++
		}
	}
	l := layout.LayoutScene(t, sceneA, 450)
	p, err := cfg.writeArtifact("fig3a_root.svg", render.SceneSVG(t, sceneA, l, 900))
	if err != nil {
		return nil, err
	}
	res.SVGPaths = append(res.SVGPaths, p)

	// (b,c) Outlier edge hunt: Miller & Stockton share one publication.
	mHits, err := eng.FindLabel(dblp.NameMiller)
	if err != nil {
		return nil, err
	}
	sHits, err := eng.FindLabel(dblp.NameStockton)
	if err != nil {
		return nil, err
	}
	if len(mHits) == 1 && len(sHits) == 1 {
		res.OutlierPair = [2]string{dblp.NameMiller, dblp.NameStockton}
		res.OutlierWeight = ds.Graph.EdgeWeight(mHits[0].Node, sHits[0].Node)
		sceneC, err := eng.SceneAt(mHits[0].Leaf, gtree.TomahawkOptions{})
		if err != nil {
			return nil, err
		}
		lc := layout.LayoutScene(t, sceneC, 450)
		p, err := cfg.writeArtifact("fig3c_outlier.svg", render.SceneSVG(t, sceneC, lc, 900))
		if err != nil {
			return nil, err
		}
		res.SVGPaths = append(res.SVGPaths, p)
	}

	// (d) Label query.
	hanHits, err := eng.FindLabel(dblp.NameJiaweiHan)
	if err != nil {
		return nil, err
	}
	if len(hanHits) != 1 {
		return nil, fmt.Errorf("expected exactly one Jiawei Han, got %d", len(hanHits))
	}
	han := hanHits[0]
	res.HanPath = leafPathString(han.Path)

	// (e) His subgraph community.
	sub, members, err := eng.LeafSubgraph(han.Leaf)
	if err != nil {
		return nil, err
	}
	res.HanLeafSize = sub.NumNodes()
	var hanLocal graph.NodeID = -1
	for i, u := range members {
		if u == han.Node {
			hanLocal = graph.NodeID(i)
		}
	}
	svg, err := eng.RenderLeaf(han.Leaf, 700, []graph.NodeID{han.Node}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p, err = cfg.writeArtifact("fig3e_han_community.svg", svg)
	if err != nil {
		return nil, err
	}
	res.SVGPaths = append(res.SVGPaths, p)

	// (f) Interact: his heaviest co-author edge. The leaf holds only
	// intra-community edges, so fall back to the full graph (GMine's edge
	// expansion feature) if Ke Wang landed in another community.
	if hanLocal >= 0 {
		bestW := 0.0
		var bestL string
		for _, e := range sub.Neighbors(hanLocal) {
			if e.Weight > bestW {
				bestW = e.Weight
				bestL = sub.Label(e.To)
			}
		}
		for _, e := range ds.Graph.Neighbors(han.Node) {
			if e.Weight > bestW {
				bestW = e.Weight
				bestL = ds.Graph.Label(e.To)
			}
		}
		res.HanTopCoauthor = bestL
		res.HanTopWeight = bestW
	}

	cfg.printf("(a) root scene: %d first-level + %d second-level communities (paper: 5 + 25)\n",
		res.TopCommunities, res.SecondLevel)
	cfg.printf("    highly-connected: %d, relatively isolated: %d (paper: 3 vs 2)\n",
		res.ActiveCommunities, res.IsolatedCommunities)
	cfg.printf("(b,c) outlier edge: %s - %s, weight %.0f (paper: unique 1989 publication)\n",
		res.OutlierPair[0], res.OutlierPair[1], res.OutlierWeight)
	cfg.printf("(d) label query %q -> %s\n", dblp.NameJiaweiHan, res.HanPath)
	cfg.printf("(e) his community: %d nodes\n", res.HanLeafSize)
	cfg.printf("(f) strongest co-author: %s (weight %.0f; paper: Ke Wang) %s\n",
		res.HanTopCoauthor, res.HanTopWeight, okness(res.HanTopCoauthor == dblp.NameKeWang))
	return res, nil
}
