// Benchmarks regenerating every figure/claim of the paper (one bench per
// experiment id in DESIGN.md, E1..E10) plus micro-benchmarks of the
// substrates. Run:
//
//	go test -bench=. -benchmem
//
// Scales are kept small so the full suite finishes in minutes; the
// cmd/gmine "repro" subcommand runs the same experiments at the standard
// (or full) scale with the paper-vs-measured report.
package gmine_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	gmine "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/storage"
)

const (
	benchScale = 0.02 // ~6,300 authors, ~30k edges
	benchSeed  = 1
)

var (
	setupOnce sync.Once
	benchDS   *gmine.DBLPDataset
	benchEng  *gmine.Engine
	benchTree string // persisted G-Tree path
	benchDir  string
)

// TestMain removes the benchmarks' saved G-Tree once every test and
// benchmark of the package has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func setup(b *testing.B) {
	b.Helper()
	setupOnce.Do(func() {
		benchDS = gmine.GenerateDBLP(gmine.DBLPConfig{Scale: benchScale, Seed: benchSeed})
		var err error
		benchEng, err = gmine.Build(benchDS.Graph, gmine.BuildConfig{K: 5, Levels: 4, Seed: benchSeed})
		if err != nil {
			panic(err)
		}
		benchDir, err = os.MkdirTemp("", "gmine-bench")
		if err != nil {
			panic(err)
		}
		benchTree = filepath.Join(benchDir, "bench.gtree")
		if err := benchEng.SaveTree(benchTree, 0); err != nil {
			panic(err)
		}
	})
	// The first benchmark to run builds the fixture; keep that out of its
	// timing, which at -benchtime 1x is a single op.
	b.ResetTimer()
}

// BenchmarkE1_GTreeBuild measures the full hierarchy construction (Fig 1):
// recursive 5-way multilevel partitioning plus connectivity aggregation.
func BenchmarkE1_GTreeBuild(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := gmine.Build(benchDS.Graph, gmine.BuildConfig{K: 5, Levels: 4, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if eng.Tree().NumCommunities() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkGTreeBuildScale measures hierarchy construction (k 5, 5 levels)
// as the graph grows, so super-linear growth of the build shows up as
// falling nodes/s. 0.03 is the server benchmark's fixture size.
func BenchmarkGTreeBuildScale(b *testing.B) {
	for _, scale := range []float64{0.03, 0.1} {
		b.Run(fmt.Sprint(scale), func(b *testing.B) {
			ds := gmine.GenerateDBLP(gmine.DBLPConfig{Scale: scale, Seed: benchSeed})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 5, Levels: 5, Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ds.Graph.NumNodes())*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkE2_SceneKinds measures producing the Fig 2 drawing vocabulary:
// a Tomahawk scene with community nodes and connectivity edges, rendered
// to SVG.
func BenchmarkE2_SceneKinds(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svg, err := benchEng.RenderSceneAt(benchEng.Tree().Root(), 900, gmine.TomahawkOptions{Grandchildren: true})
		if err != nil || len(svg) == 0 {
			b.Fatal("empty scene")
		}
	}
}

// BenchmarkE3_NavigationSequence measures the Fig 3 interactive loop:
// label query, focus change, Tomahawk scene, leaf subgraph load.
func BenchmarkE3_NavigationSequence(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits, err := benchEng.FindLabel(gmine.NameJiaweiHan)
		if err != nil || len(hits) != 1 {
			b.Fatal("label query failed")
		}
		scene, err := benchEng.SceneAt(hits[0].Leaf, gmine.TomahawkOptions{})
		if err != nil || scene.Size() == 0 {
			b.Fatal("empty scene")
		}
		if _, _, err := benchEng.LeafSubgraph(hits[0].Leaf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_TomahawkScene contrasts Tomahawk scene construction with the
// draw-everything-at-this-level alternative (Fig 4).
func BenchmarkE4_TomahawkScene(b *testing.B) {
	setup(b)
	t := benchEng.Tree()
	leaves := t.Leaves()
	focus := leaves[len(leaves)/2]
	b.Run("Tomahawk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := t.Tomahawk(focus, gmine.TomahawkOptions{}); s.Size() == 0 {
				b.Fatal("empty scene")
			}
		}
	})
	b.Run("FullLevel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := t.FullLevelScene(focus); s.Size() == 0 {
				b.Fatal("empty scene")
			}
		}
	})
}

// BenchmarkE5_ConnectionSubgraph measures the Fig 5 multi-source
// extraction: 3 sources, 30-node budget (RWR + goodness + DP paths).
func BenchmarkE5_ConnectionSubgraph(b *testing.B) {
	setup(b)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
		benchDS.Notables[gmine.NameGarofalakis],
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := gmine.ConnectionSubgraph(benchDS.Graph, sources, gmine.ExtractOptions{Budget: 30})
		if err != nil {
			b.Fatal(err)
		}
		if res.Subgraph.NumNodes() > 30 {
			b.Fatal("budget exceeded")
		}
	}
}

// BenchmarkE6_CombinedPipeline measures Fig 6: extraction followed by
// hierarchical partitioning of the result.
func BenchmarkE6_CombinedPipeline(b *testing.B) {
	setup(b)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
		benchDS.Notables[gmine.NameGarofalakis],
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sub, res, err := benchEng.ExtractAndBuild(sources,
			gmine.ExtractOptions{Budget: 200},
			gmine.BuildConfig{K: 3, Levels: 3, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if res.Subgraph.NumNodes() == 0 || sub.Tree().NumCommunities() == 0 {
			b.Fatal("pipeline produced nothing")
		}
	}
}

// BenchmarkE7_SubgraphMetrics measures the §III.B metric suite (degree
// distribution, hops, WCC, SCC, PageRank) on a focused community.
func BenchmarkE7_SubgraphMetrics(b *testing.B) {
	setup(b)
	t := benchEng.Tree()
	var leaf gmine.TreeID
	best := -1
	for _, l := range t.Leaves() {
		if t.Node(l).Size > best {
			best = t.Node(l).Size
			leaf = l
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := benchEng.MetricsReport(leaf, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Nodes == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkE8_MultiResolutionVsFullDraw contrasts one interaction under
// GMine's multi-resolution scheme against one whole-graph force-directed
// redraw — the paper's central scalability claim.
func BenchmarkE8_MultiResolutionVsFullDraw(b *testing.B) {
	setup(b)
	b.Run("FullDraw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gmine.FullDrawBaseline(benchDS.Graph, 5, benchSeed)
		}
	})
	b.Run("TomahawkInteraction", func(b *testing.B) {
		disk, err := gmine.Open(benchTree, 512)
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		leaves := disk.Tree().Leaves()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leaf := leaves[i%len(leaves)]
			if _, err := disk.RenderSceneAt(leaf, 900, gmine.TomahawkOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := disk.LeafSubgraph(leaf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_MultiSourceVsPairwise contrasts one multi-source query with
// the m(m-1)/2 pairwise-baseline runs it replaces.
func BenchmarkE9_MultiSourceVsPairwise(b *testing.B) {
	setup(b)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
		benchDS.Notables[gmine.NameGarofalakis],
	}
	b.Run("MultiSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gmine.ConnectionSubgraph(benchDS.Graph, sources, gmine.ExtractOptions{Budget: 30}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PairwiseUnion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := gmine.MultiSourceViaPairwise(benchDS.Graph, sources, gmine.PairwiseOptions{Budget: 30}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_OnDemandPaging measures loading one leaf community from the
// single-file store through the buffer pool (cold pool: mostly misses;
// warm pool: hits).
func BenchmarkE10_OnDemandPaging(b *testing.B) {
	setup(b)
	b.Run("ColdPool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			disk, err := gmine.Open(benchTree, 8)
			if err != nil {
				b.Fatal(err)
			}
			leaf := disk.Tree().Leaves()[i%len(disk.Tree().Leaves())]
			if _, _, err := disk.LeafSubgraph(leaf); err != nil {
				b.Fatal(err)
			}
			disk.Close()
		}
	})
	b.Run("WarmPool", func(b *testing.B) {
		disk, err := gmine.Open(benchTree, 4096)
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		leaves := disk.Tree().Leaves()
		// Warm the pool.
		for _, l := range leaves {
			if _, _, err := disk.LeafSubgraph(l); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := disk.LeafSubgraph(leaves[i%len(leaves)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- substrate micro-benchmarks ---

func BenchmarkPartition(b *testing.B) {
	setup(b)
	for _, m := range []struct {
		name   string
		method gmine.PartitionMethod
	}{{"Multilevel", gmine.Multilevel}, {"BFSGrow", gmine.BFSGrow}, {"Random", gmine.RandomPart}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gmine.Partition(benchDS.Graph, gmine.PartitionOptions{K: 5, Seed: benchSeed, Method: m.method}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPageRank(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pr := gmine.PageRankAdj(gmine.ToCSR(benchDS.Graph), gmine.PageRankOptions{}); len(pr) == 0 {
			b.Fatal("empty pagerank")
		}
	}
}

func BenchmarkForceLayout(b *testing.B) {
	setup(b)
	leaf := benchEng.Tree().Leaves()[0]
	sub, _, err := benchEng.LeafSubgraph(leaf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gmine.ForceLayout(sub, gmine.Circle{R: 300}, gmine.ForceOptions{Iterations: 50, Seed: benchSeed})
	}
}

// sweepCountBench counts the whole-graph passes a solve makes.
type sweepCountBench struct {
	gmine.Adjacency
	sweeps int
}

func (c *sweepCountBench) SweepEdges(lo, hi gmine.NodeID, fn func(u gmine.NodeID, nbrs []gmine.NodeID, w []float64) bool) error {
	c.sweeps++
	return c.Adjacency.SweepEdges(lo, hi, fn)
}

// sweepReads returns the file reads a paged adjacency's sweeps have made
// so far (gtree.PagedCSR.SweepCounts); 0 for other backends.
func sweepReads(adj gmine.Adjacency) int64 {
	if c, ok := adj.(interface{ SweepCounts() (reads, pages int64) }); ok {
		reads, _ := c.SweepCounts()
		return reads
	}
	return 0
}

// BenchmarkRWRMultiFused measures the multi-source RWR solve — the first
// stage of every extraction — for 1, 2 and 8 sources, in memory and paged
// at a pool far smaller than the CSR section. All the sources advance in
// one sweep per power iteration, so sweeps/op is the iteration count of the
// slowest source and barely moves with k, and reads/op (the sweeps' file
// reads per solve, a window of pages each) follows it; pins/op (pool
// hits+misses per solve) is 0, since sweeps read the file without
// pinning. ns/op grows with k only by the per-row arithmetic.
func BenchmarkRWRMultiFused(b *testing.B) {
	setup(b)
	n := benchDS.Graph.NumNodes()
	run := func(b *testing.B, adj gmine.Adjacency, k int) *sweepCountBench {
		b.Helper()
		sources := make([]gmine.NodeID, k)
		for i := range sources {
			sources[i] = gmine.NodeID((i*n)/k + 1)
		}
		counted := &sweepCountBench{Adjacency: adj}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gmine.RWRMulti(counted, sources, gmine.RWROptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(counted.sweeps)/float64(b.N), "sweeps/op")
		return counted
	}
	csr := gmine.ToCSR(benchDS.Graph)
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("MemoryCSR/k=%d", k), func(b *testing.B) { run(b, csr, k) })
	}
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("Paged/pool=16/k=%d", k), func(b *testing.B) {
			disk, err := gmine.Open(benchTree, 16)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			adj, err := disk.Adj()
			if err != nil {
				b.Fatal(err)
			}
			adj.WeightedDegrees() // comparable warm start
			disk.Store().ResetPoolStats()
			reads0 := sweepReads(adj)
			run(b, adj, k)
			st := disk.Store().PoolStats()
			b.ReportMetric(float64(st.Hits+st.Misses)/float64(b.N), "pins/op")
			b.ReportMetric(float64(sweepReads(adj)-reads0)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkExtractMemoryVsPaged contrasts one multi-source extraction on
// the in-memory CSR against the out-of-core paged CSR at several buffer
// pool sizes. The paged runs trade speed for bounded resident adjacency:
// a pool far smaller than the CSR section still answers the query, just
// with more page churn (watch evictions grow as the pool shrinks).
// pins/op is the row cursors' pool traffic and reads/op the sweeps' file
// reads, both from each query's trace.
func BenchmarkExtractMemoryVsPaged(b *testing.B) {
	setup(b)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
		benchDS.Notables[gmine.NameGarofalakis],
	}
	opts := gmine.ExtractOptions{Budget: 30}
	b.Run("MemoryCSR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchEng.Extract(sources, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, pool := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("Paged/pool=%d", pool), func(b *testing.B) {
			disk, err := gmine.Open(benchTree, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			var pins, reads int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace("bench")
				if _, err := disk.ExtractTraced(context.Background(), tr, sources, opts); err != nil {
					b.Fatal(err)
				}
				pins += tr.CountValue("pool.pins")
				reads += tr.CountValue("sweep.reads")
			}
			b.StopTimer()
			st := disk.Store().PoolInfo()
			b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
			b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}

// pageRank runs the PageRank half of a whole-graph analysis: the kernel
// on a fresh query view of eng's store, failing on any read fault.
func pageRank(eng *gmine.Engine, opts gmine.PageRankOptions) error {
	view, err := eng.Store().QueryView(context.Background())
	if err != nil {
		return err
	}
	gmine.PageRankAdj(view.Adj, opts)
	return view.Err()
}

// BenchmarkPageRankMemoryVsPaged contrasts whole-graph PageRank — the
// workload behind GET /sessions/{id}/analysis/graph — on the in-memory
// CSR against the out-of-core paged CSR. Whole-graph sweeps read windows
// straight from the file and pin nothing, so the pool size does not
// matter: the paged row keeps its pool=256 name, which the committed
// trajectory pairs with, and evictions/op reads 0.
func BenchmarkPageRankMemoryVsPaged(b *testing.B) {
	setup(b)
	opts := gmine.PageRankOptions{}
	b.Run("MemoryCSR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pageRank(benchEng, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Paged/pool=256", func(b *testing.B) {
		disk, err := gmine.Open(benchTree, 256)
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pageRank(disk, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := disk.Store().PoolInfo()
		b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
	})
}

// BenchmarkRWRSetSweepVsNeighbors measures one whole-graph RWR solve — the
// extraction hot loop — in memory and paged at several pool sizes. The
// sweep reads O(filePages) pages per power iteration straight from the
// file, a window per read; reads/op reports those reads per solve and
// pins/op the pool traffic (hits+misses per solve), which is 0. The
// node-centric rows it was once contrasted with are gone with that path;
// the name and the Sweep rows stay so benchjson -compare keeps pairing
// them with the committed trajectory.
func BenchmarkRWRSetSweepVsNeighbors(b *testing.B) {
	setup(b)
	csr := gmine.ToCSR(benchDS.Graph)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
		benchDS.Notables[gmine.NameGarofalakis],
	}
	opts := gmine.RWROptions{}
	run := func(b *testing.B, adj gmine.Adjacency) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gmine.RWRSet(adj, sources, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Memory/Sweep", func(b *testing.B) { run(b, csr) })
	for _, pool := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("Paged/Sweep/pool=%d", pool), func(b *testing.B) {
			disk, err := gmine.Open(benchTree, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			adj, err := disk.Adj()
			if err != nil {
				b.Fatal(err)
			}
			adj.WeightedDegrees() // comparable warm start
			disk.Store().ResetPoolStats()
			reads0 := sweepReads(adj)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, adj)
			b.StopTimer()
			st := disk.Store().PoolStats()
			b.ReportMetric(float64(st.Hits+st.Misses)/float64(b.N), "pins/op")
			b.ReportMetric(float64(sweepReads(adj)-reads0)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkPageRankSweepVsNeighbors is the PageRank-side trajectory point
// — the GET /sessions/{id}/analysis/graph workload — on both backends,
// named like BenchmarkRWRSetSweepVsNeighbors for the same reason.
func BenchmarkPageRankSweepVsNeighbors(b *testing.B) {
	setup(b)
	csr := gmine.ToCSR(benchDS.Graph)
	opts := gmine.PageRankOptions{}
	run := func(b *testing.B, adj gmine.Adjacency) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pr := gmine.PageRankAdj(adj, opts); len(pr) == 0 {
				b.Fatal("empty pagerank")
			}
		}
	}
	b.Run("Memory/Sweep", func(b *testing.B) { run(b, csr) })
	for _, pool := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("Paged/Sweep/pool=%d", pool), func(b *testing.B) {
			disk, err := gmine.Open(benchTree, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			adj, err := disk.Adj()
			if err != nil {
				b.Fatal(err)
			}
			adj.WeightedDegrees()
			disk.Store().ResetPoolStats()
			reads0 := sweepReads(adj)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, adj)
			b.StopTimer()
			st := disk.Store().PoolStats()
			b.ReportMetric(float64(st.Hits+st.Misses)/float64(b.N), "pins/op")
			b.ReportMetric(float64(sweepReads(adj)-reads0)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkKeyPathPagedCursor is the trajectory point for the row cursor:
// one two-source extraction whose time is mostly key-path expansion
// (restart 0.5 keeps the RWR solve short), in memory and paged with a
// pool far smaller than (16) and about the size of (256) the CSR section,
// and one just under the Adjncy run (7/8 of its pages): the regime where
// the DP's alternating row order lets the pool hit, where repeated
// ascending scans would miss every page. expand-ns/op is the "expand"
// stage alone; pins/op is what the extraction's row cursors cost the
// buffer pool (the trace's pool.cursor.pins), rows/op how many rows they
// read for it — before the cursor every row paid its own two or more
// pins — and misses/op how many of the query's pins had to load a page
// (the trace's pool.misses).
func BenchmarkKeyPathPagedCursor(b *testing.B) {
	setup(b)
	sources := []gmine.NodeID{
		benchDS.Notables[gmine.NamePhilipYu],
		benchDS.Notables[gmine.NameFlipKorn],
	}
	opts := gmine.ExtractOptions{Budget: 30, RWR: gmine.RWROptions{Restart: 0.5}}
	run := func(b *testing.B, eng *gmine.Engine) {
		b.Helper()
		var expandMicros, pins, rows, misses int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			if _, err := eng.ExtractTraced(context.Background(), tr, sources, opts); err != nil {
				b.Fatal(err)
			}
			for _, st := range tr.Stages() {
				if st.Name == "expand" {
					expandMicros += st.DurMicros
				}
			}
			pins += tr.CountValue("pool.cursor.pins")
			rows += tr.CountValue("pool.cursor.rows")
			misses += tr.CountValue("pool.misses")
		}
		b.ReportMetric(float64(expandMicros)*1e3/float64(b.N), "expand-ns/op")
		b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
		b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	}
	b.Run("MemoryCSR", func(b *testing.B) { run(b, benchEng) })
	probe, err := gmine.Open(benchTree, 16)
	if err != nil {
		b.Fatal(err)
	}
	csr, err := probe.Store().PagedCSR()
	if err != nil {
		b.Fatal(err)
	}
	// 4-byte ids on pages of the default size, less their 4-byte checksum.
	adjncyPages := storage.RunPages(csr.HalfEdges(), 4, storage.DefaultPageSize-4)
	probe.Close()
	for _, pool := range []int{16, adjncyPages * 7 / 8, 256} {
		b.Run(fmt.Sprintf("Paged/pool=%d", pool), func(b *testing.B) {
			disk, err := gmine.Open(benchTree, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			run(b, disk)
		})
	}
}

// BenchmarkPoolMiss measures the buffer pool's miss path alone: the bench
// G-Tree file read through a 16-frame pool (file ≫ pool), every worker
// walking its own slice of the pages round-robin so each Get evicts a
// frame and loads a page and nothing ever hits. /Serial is the cost of
// one miss (B/op and allocs/op are the point: a load reuses the victim's
// frame and buffer); /Parallel4 is four goroutines missing on disjoint
// pages at once, which the pool lock used to serialize around the read.
func BenchmarkPoolMiss(b *testing.B) {
	setup(b)
	run := func(b *testing.B, workers int) {
		p, err := storage.Open(benchTree, true)
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		bp := storage.NewBufferPool(p, 16)
		span := (int(p.NumPages()) - 1) / workers // data pages per worker; page 0 is the superblock
		if span < 32 {
			b.Fatalf("bench file has %d pages: too small to always miss", p.NumPages())
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; k < b.N; k += workers {
					id := storage.PageID(1 + g*span + (k/workers)%span)
					if _, err := bp.Get(id); err != nil {
						b.Error(err)
						return
					}
					bp.Release(id)
				}
			}(g)
		}
		wg.Wait()
		b.StopTimer()
		if st := bp.Stats(); st.Hits != 0 {
			b.Fatalf("%d hits: not a pure miss workload", st.Hits)
		}
	}
	b.Run("Serial", func(b *testing.B) { run(b, 1) })
	b.Run("Parallel4", func(b *testing.B) { run(b, 4) })
}

// zipfSources returns a deterministic generator of 3-source extraction
// queries whose sources follow a Zipf distribution over the node ids —
// the skewed interactive workload hot/cold tiering exists for: a few hub
// authors appear in most queries, the long tail rarely.
func zipfSources(n int) func() []gmine.NodeID {
	rng := rand.New(rand.NewSource(benchSeed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
	return func() []gmine.NodeID {
		srcs := make([]gmine.NodeID, 0, 3)
		for len(srcs) < 3 {
			id := gmine.NodeID(zipf.Uint64())
			dup := false
			for _, s := range srcs {
				dup = dup || s == id
			}
			if !dup {
				srcs = append(srcs, id)
			}
		}
		return srcs
	}
}

// BenchmarkExtractTieredSkewed is the tiering trajectory point: a
// Zipf-skewed multi-source extraction stream on the in-memory engine, the
// plain paged engine, and the tiered engine cold (nothing resident: the
// first query pages and its promotion step loads the whole graph) and
// warmed (32 queries of the same stream ran first, so the graph is
// already resident). stream-pins/op is the buffer-pool traffic per query,
// averaged over the first b.N queries of the stream: the sources and the
// one-off promotion differ per query, so it moves with b.N and is kept
// out of benchjson's work-count names. frag-hit-ratio is the fraction of
// queries in the timed loop that read the resident graph (each picks
// memory or pages once, when it opens). The acceptance bound:
// Tiered/warmed within 2x of MemoryCSR, resident tier bytes never above
// the budget.
func BenchmarkExtractTieredSkewed(b *testing.B) {
	setup(b)
	n := benchDS.Graph.NumNodes()
	opts := gmine.ExtractOptions{Budget: 30}
	const tierBudget = 4 << 20

	b.Run("MemoryCSR", func(b *testing.B) {
		next := zipfSources(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchEng.Extract(next(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, cfg := range []struct {
		name   string
		budget int64
		warm   bool
	}{
		{"Paged", 0, false},
		{"Tiered/cold", tierBudget, false},
		{"Tiered/warmed", tierBudget, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			disk, err := gmine.Open(benchTree, 256)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			disk.SetTierBudget(cfg.budget)
			if cfg.warm {
				warm := zipfSources(n)
				for i := 0; i < 32; i++ {
					if _, err := disk.Extract(warm(), opts); err != nil {
						b.Fatal(err)
					}
				}
			}
			var hits0, misses0 uint64
			if ti := disk.Store().TierInfo(); ti != nil {
				hits0, misses0 = ti.Hits, ti.Misses
			}
			disk.Store().ResetPoolStats()
			next := zipfSources(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := disk.Extract(next(), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := disk.Store().PoolStats()
			b.ReportMetric(float64(st.Hits+st.Misses)/float64(b.N), "stream-pins/op")
			if ti := disk.Store().TierInfo(); ti != nil {
				if ti.Bytes > tierBudget {
					b.Fatalf("resident tier bytes %d exceed budget %d", ti.Bytes, tierBudget)
				}
				hits, misses := ti.Hits-hits0, ti.Misses-misses0
				if hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "frag-hit-ratio")
				}
				b.ReportMetric(float64(ti.Promotions), "promotions")
			}
		})
	}
}

// BenchmarkANFVsExactHopPlot contrasts the sketch-based neighborhood
// function against exact all-sources BFS on the bench graph.
func BenchmarkANFVsExactHopPlot(b *testing.B) {
	setup(b)
	adj := gmine.ToCSR(benchDS.Graph)
	b.Run("ANF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gmine.ComputeANF(adj, benchDS.Graph.Directed(), gmine.ANFOptions{K: 24, Seed: benchSeed})
		}
	})
	b.Run("ExactSampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gmine.AnalysisReport(benchDS.Graph, 64, benchSeed)
		}
	})
}

// BenchmarkReproSuite runs the complete experiment harness quietly at a
// small scale — the end-to-end cost of regenerating every figure.
func BenchmarkReproSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := &experiments.Config{Scale: 0.01, Seed: benchSeed, K: 3, Levels: 3, Quiet: true, Dir: b.TempDir()}
		if err := experiments.RunAll(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
