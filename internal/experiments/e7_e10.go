package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
)

// E7Result records the subgraph metrics experiment.
type E7Result struct {
	Leaf    gtree.TreeID
	Report  analysis.SubgraphReport
	TopList []string
}

// RunE7 reproduces §III.B: for a focused leaf community, compute degree
// distribution, number of hops, weak components, strong components and
// PageRank — the metric menu GMine offers on the expanded subgraph.
func RunE7(cfg *Config) (*E7Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	t := eng.Tree()
	// Pick the largest leaf (a representative ~500-author community at
	// paper scale).
	var leaf gtree.TreeID
	best := -1
	for _, l := range t.Leaves() {
		if t.Node(l).Size > best {
			best = t.Node(l).Size
			leaf = l
		}
	}
	rep, err := eng.MetricsReport(leaf, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &E7Result{Leaf: leaf, Report: rep}
	sub, _, err := eng.LeafSubgraph(leaf)
	if err != nil {
		return nil, err
	}
	for _, id := range rep.TopRanked[:min(5, len(rep.TopRanked))] {
		label := sub.Label(id)
		if label == "" {
			label = fmt.Sprintf("node %d", id)
		}
		res.TopList = append(res.TopList, label)
	}
	cfg.printf("focused community s%03d: %d nodes, %d edges\n", leaf, rep.Nodes, rep.Edges)
	cfg.printf("degree: min %d max %d mean %.2f, power-law exponent %.2f\n",
		rep.Degree.Min, rep.Degree.Max, rep.Degree.Mean, rep.Degree.PowerLawExponent)
	cfg.printf("hops: effective diameter %d (max %d)\n", rep.EffectiveDiameter, rep.MaxHops)
	cfg.printf("weak components: %d, strong components: %d\n", rep.WeakComponents, rep.StrongComponents)
	cfg.printf("top PageRank authors: %v\n", res.TopList)
	return res, nil
}

// E8Row is one sweep point of the scalability experiment.
type E8Row struct {
	Nodes         int
	FullDraw      time.Duration // whole-graph force layout (per redraw)
	BuildOnce     time.Duration // one-time G-Tree construction
	InteractAvg   time.Duration // scene + leaf page-in per interaction
	PagesPerFocus float64
}

// E8Result records the multi-resolution vs whole-graph comparison.
type E8Result struct{ Rows []E8Row }

// RunE8 tests the paper's core scalability claim (§I, §V): processing
// "smaller parts of the graph one at a time" keeps interaction cost flat
// while whole-graph drawing grows superlinearly with n.
func RunE8(cfg *Config) (*E8Result, error) {
	*cfg = cfg.withDefaults()
	res := &E8Result{}
	scales := []float64{cfg.Scale / 8, cfg.Scale / 4, cfg.Scale / 2, cfg.Scale}
	cfg.printf("%-9s %-14s %-14s %-16s %s\n", "nodes", "full redraw", "build (once)", "interaction avg", "pages/focus")
	for _, s := range scales {
		ds := dblp.Generate(dblp.Config{Scale: s, Seed: cfg.Seed})
		row := E8Row{Nodes: ds.Graph.NumNodes()}
		// Whole-graph force layout, few iterations (one interactive
		// redraw of the naive system).
		ft, _ := timeIt(func() error {
			core.FullDrawBaseline(ds.Graph, 5, cfg.Seed)
			return nil
		})
		row.FullDraw = ft
		var eng *core.Engine
		bt, err := timeIt(func() error {
			var err error
			eng, err = core.BuildEngine(ds.Graph, core.BuildConfig{K: cfg.K, Levels: cfg.Levels, Seed: cfg.Seed})
			return err
		})
		if err != nil {
			return nil, err
		}
		row.BuildOnce = bt
		// Persist and reopen so interactions page from disk like the
		// demo system.
		dir, err := cfg.artifactDir()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("e8_%d.gtree", row.Nodes))
		if err := eng.SaveTree(path, 0); err != nil {
			return nil, err
		}
		disk, err := core.OpenEngine(path, 512)
		if err != nil {
			return nil, err
		}
		t := disk.Tree()
		leaves := t.Leaves()
		interactions := 20
		if len(leaves) < interactions {
			interactions = len(leaves)
		}
		disk.Store().ResetPoolStats()
		it, err := timeIt(func() error {
			for i := 0; i < interactions; i++ {
				leaf := leaves[(i*37)%len(leaves)]
				scene, err := disk.SceneAt(leaf, gtree.TomahawkOptions{})
				if err != nil {
					return err
				}
				_ = layout.LayoutScene(t, scene, 450)
				if _, _, err := disk.LeafSubgraph(leaf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st := disk.Store().PoolStats()
		disk.Close()
		row.InteractAvg = it / time.Duration(interactions)
		row.PagesPerFocus = float64(st.Misses) / float64(interactions)
		res.Rows = append(res.Rows, row)
		cfg.printf("%-9d %-14v %-14v %-16v %.1f\n",
			row.Nodes, row.FullDraw, row.BuildOnce, row.InteractAvg, row.PagesPerFocus)
	}
	cfg.printf("claim: interaction stays ~flat while full redraw grows; build is a one-time cost\n")
	return res, nil
}

// E9Row is one sweep point of the multi-source comparison.
type E9Row struct {
	M            int
	CepsTime     time.Duration
	CepsGoodness float64
	PairRuns     int
	PairTime     time.Duration
	PairGoodness float64
}

// E9Result records the multi-source vs pairwise comparison.
type E9Result struct{ Rows []E9Row }

// RunE9 compares the paper's multi-source extraction with the pairwise
// KDD'04 baseline: one query vs m(m-1)/2 runs, and captured meeting
// probability for the same budget.
func RunE9(cfg *Config) (*E9Result, error) {
	*cfg = cfg.withDefaults()
	g := cfg.dataset().Graph
	// Query sets drawn from the giant component, deterministic.
	lc := analysis.LargestComponent(graph.ToCSR(g))
	pick := func(i int) graph.NodeID { return lc[(i*104729)%len(lc)] }
	res := &E9Result{}
	budget := 30
	cfg.printf("%-4s %-12s %-14s %-10s %-12s %-14s\n", "m", "ceps time", "ceps goodness", "pair runs", "pair time", "pair goodness")
	for _, m := range []int{2, 3, 5} {
		var sources []graph.NodeID
		seen := map[graph.NodeID]bool{}
		for i := 0; len(sources) < m; i++ {
			u := pick(i + m*13)
			if !seen[u] {
				seen[u] = true
				sources = append(sources, u)
			}
		}
		row := E9Row{M: m}
		var ceps *extract.Result
		var err error
		row.CepsTime, err = timeIt(func() error {
			var err error
			ceps, err = extract.ConnectionSubgraph(g, sources, extract.Options{Budget: budget})
			return err
		})
		if err != nil {
			return nil, err
		}
		var pair *extract.PairwiseResult
		row.PairTime, err = timeIt(func() error {
			var err error
			pair, row.PairRuns, err = extract.MultiSourceViaPairwise(g, sources, extract.PairwiseOptions{Budget: budget})
			return err
		})
		if err != nil {
			return nil, err
		}
		// Same goodness yardstick for both outputs.
		csr := graph.ToCSR(g)
		rwr, err := extract.RWRMulti(csr, sources, extract.RWROptions{})
		if err != nil {
			return nil, err
		}
		good := extract.Goodness(rwr, extract.CombineAND, 0)
		sum := func(nodes []graph.NodeID) float64 {
			var s float64
			for _, u := range nodes {
				s += good[u]
			}
			return s
		}
		row.CepsGoodness = sum(ceps.Nodes)
		row.PairGoodness = sum(pair.Nodes)
		res.Rows = append(res.Rows, row)
		cfg.printf("%-4d %-12v %-14.3g %-10d %-12v %-14.3g\n",
			m, row.CepsTime, row.CepsGoodness, row.PairRuns, row.PairTime, row.PairGoodness)
	}
	cfg.printf("claim: one multi-source query replaces m(m-1)/2 pairwise runs and captures >= goodness\n")
	return res, nil
}

// E10Row is one buffer-pool sweep point.
type E10Row struct {
	PoolPages int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	HitRate   float64
}

// E10Result records the paging experiment.
type E10Result struct {
	FilePages uint32
	Rows      []E10Row
}

// RunE10 validates the single-file, on-demand storage claim of §III.A:
// a focus walk touches only the pages of the visited communities, and the
// buffer pool turns repeated visits into memory hits.
func RunE10(cfg *Config) (*E10Result, error) {
	*cfg = cfg.withDefaults()
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	dir, err := cfg.artifactDir()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "e10.gtree")
	if err := eng.SaveTree(path, 0); err != nil {
		return nil, err
	}
	res := &E10Result{}
	cfg.printf("%-11s %-8s %-8s %-10s %s\n", "pool pages", "hits", "misses", "evictions", "hit rate")
	for _, pool := range []int{8, 64, 512} {
		disk, err := core.OpenEngine(path, pool)
		if err != nil {
			return nil, err
		}
		res.FilePages = disk.Store().FilePages()
		t := disk.Tree()
		leaves := t.Leaves()
		// Focus walk with locality: revisit a small working set.
		for i := 0; i < 60; i++ {
			leaf := leaves[(i*7)%min(len(leaves), 10)]
			if _, _, err := disk.LeafSubgraph(leaf); err != nil {
				return nil, err
			}
		}
		st := disk.Store().PoolStats()
		row := E10Row{PoolPages: pool, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
		if st.Hits+st.Misses > 0 {
			row.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		res.Rows = append(res.Rows, row)
		disk.Close()
		cfg.printf("%-11d %-8d %-8d %-10d %.2f\n", pool, row.Hits, row.Misses, row.Evictions, row.HitRate)
	}
	cfg.printf("claim: leaves transfer to memory only when touched; a working-set-sized pool serves revisits from RAM\n")
	return res, nil
}
