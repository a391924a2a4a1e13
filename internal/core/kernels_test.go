package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/gtree"
)

// kernelRow is one backend of TestKernels: an engine over the table's
// graph, or none for the reference row "csr", whose kernels run on the
// in-memory CSR directly. premise, when set, checks after the row's
// queries that the engine really serves the row's tier.
type kernelRow struct {
	name    string
	eng     *Engine
	premise func(t *testing.T)
}

// kernelRows opens every engine backend over g, one row each: the built
// engine (the whole graph promoted), engines paging files of page sizes
// 256 and 1024 through pools of 2, 16 and 4096 frames, and a tier budget
// one byte short of the graph.
func kernelRows(t *testing.T, g *graph.Graph) []kernelRow {
	built, err := BuildEngine(g, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[int]string{}
	open := func(pageSize, pool int) *Engine {
		if paths[pageSize] == "" {
			paths[pageSize] = filepath.Join(t.TempDir(), "g.gtree")
			if err := built.SaveTree(paths[pageSize], pageSize); err != nil {
				t.Fatal(err)
			}
		}
		e, err := OpenEngine(paths[pageSize], pool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	rows := []kernelRow{{name: "csr"}, {name: "built", eng: built, premise: func(t *testing.T) {
		if adj, _ := built.Adj(); !isCSR(adj) {
			t.Fatalf("built engine's adjacency is %T, want the resident CSR", adj)
		}
	}}}
	for _, pageSize := range []int{256, 1024} {
		for _, pool := range []int{2, 16, 4096} {
			e := open(pageSize, pool)
			rows = append(rows, kernelRow{fmt.Sprintf("paged/page=%d/pool=%d", pageSize, pool), e, func(t *testing.T) {
				pi := e.Store().PoolInfo()
				if pi.Resident > pi.Capacity || pool == 2 && pi.Evictions == 0 || pi.Tier != nil {
					t.Fatalf("pool of %d frames: %+v — not out of core", pool, pi)
				}
			}})
		}
	}
	below, whole := open(256, 4096), open(256, 64)
	c, err := below.Store().PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	below.SetTierBudget(4*int64(c.N()+1) + 12*int64(c.HalfEdges()) - 1)
	whole.SetTierBudget(1 << 30)
	return append(rows,
		kernelRow{"tiered/below-budget", below, func(t *testing.T) {
			if ti := below.Store().TierInfo(); ti.Fragments != 0 || ti.Promotions != 0 || ti.Hits != 0 || ti.Misses == 0 {
				t.Fatalf("below-budget tier: %+v", ti)
			}
		}},
		// Pages its first query, which promotes the whole graph when it
		// ends: every later query reads memory.
		kernelRow{"tiered/promoted-by-query", whole, func(t *testing.T) {
			if ti := whole.Store().TierInfo(); ti.Fragments != 1 || ti.Promotions != 1 || ti.Hits == 0 || ti.Misses == 0 {
				t.Fatalf("tier promoted by the first query: %+v", ti)
			}
		}},
	)
}

// isCSR reports whether adj is the in-memory CSR.
func isCSR(adj graph.Adjacency) bool {
	_, mem := adj.(*graph.CSR)
	return mem
}

// kernelQuery is what TestKernels asks of every row.
type kernelQuery struct {
	sources  []graph.NodeID // RWR's source is sources[0]
	extracts []struct {
		sources []graph.NodeID
		opts    extract.Options
	}
	leaves []kernelLeaf
}

// kernelLeaf is one leaf community of the rows' G-Tree, whose metric
// report every row computes.
type kernelLeaf struct {
	id      gtree.TreeID
	members []graph.NodeID
}

// treeLeaves lists the leaves of the built engine's tree with their
// members; every engine row serves the same tree.
func treeLeaves(built *Engine) []kernelLeaf {
	var leaves []kernelLeaf
	for _, id := range built.Tree().Leaves() {
		leaves = append(leaves, kernelLeaf{id, built.Tree().Node(id).Members})
	}
	return leaves
}

// kernelOut is one row's answers.
type kernelOut struct {
	rwr      []float64
	multi    [][]float64
	set      []float64
	pagerank []float64
	report   analysis.AdjacencyReport
	extracts []*extract.Result
	analyzed *GraphAnalysis
	leaves   []analysis.SubgraphReport
}

// prOpts converges PageRank far enough for the oracle's tolerance.
var prOpts = analysis.PageRankOptions{Epsilon: 1e-12, MaxIter: 500}

// runKernels runs every kernel on row, with a live context. On an
// engine, RWR, RWRMulti, RWRSet and ReportAdj solve on one query view, and
// PageRank, Extract, AnalyzeGraph and the leaves' MetricsReport are the
// engine's own. The CSR row reports on each leaf's members induced from
// the in-memory CSR.
func runKernels(t *testing.T, row kernelRow, g *graph.Graph, q kernelQuery) kernelOut {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var adj graph.Adjacency = graph.ToCSR(g)
	var qv *gtree.QueryView
	var err error
	if row.eng != nil {
		if qv, err = row.eng.Store().QueryView(ctx); err != nil {
			t.Fatal(err)
		}
		adj = qv.Adj
	}
	var out kernelOut
	rwrOpts := extract.RWROptions{Ctx: ctx}
	if out.rwr, err = extract.RWR(adj, q.sources[0], rwrOpts); err != nil {
		t.Fatal(err)
	}
	if out.multi, err = extract.RWRMulti(adj, q.sources, rwrOpts); err != nil {
		t.Fatal(err)
	}
	if out.set, err = extract.RWRSet(adj, q.sources, rwrOpts); err != nil {
		t.Fatal(err)
	}
	out.report = analysis.ReportAdj(adj, g.Directed())
	if qv != nil && qv.Err() != nil {
		t.Fatalf("kernels latched %v", qv.Err())
	}
	if row.eng == nil {
		pr := prOpts
		pr.Ctx = ctx
		out.pagerank = analysis.PageRankAdj(adj, pr)
	} else if out.pagerank, err = row.eng.PageRankTraced(ctx, nil, prOpts); err != nil {
		t.Fatal(err)
	}
	for _, x := range q.extracts {
		var res *extract.Result
		if row.eng == nil {
			res, err = extract.ConnectionSubgraphAdj(adj, g.Directed(), g.Label, x.sources, x.opts)
		} else {
			res, err = row.eng.ExtractTraced(ctx, nil, x.sources, x.opts)
		}
		if err != nil {
			t.Fatalf("extract %v %+v: %v", x.sources, x.opts, err)
		}
		out.extracts = append(out.extracts, res)
	}
	if row.eng == nil {
		out.analyzed = &GraphAnalysis{AdjacencyReport: out.report, Directed: g.Directed(), PageRank: out.pagerank,
			TopRanked: analysis.TopKByRank(out.pagerank, 10)}
		for _, u := range out.analyzed.TopRanked {
			out.analyzed.TopLabels = append(out.analyzed.TopLabels, g.Label(u))
		}
	} else if out.analyzed, err = row.eng.AnalyzeGraphTraced(ctx, nil, prOpts, 10); err != nil {
		t.Fatal(err)
	}
	for _, l := range q.leaves {
		var rep analysis.SubgraphReport
		if row.eng == nil {
			sub, _ := graph.Induced(adj, g.Directed(), g.Label, l.members)
			rep = analysis.Report(sub, 0, 1)
		} else if rep, err = row.eng.MetricsReport(l.id, 1); err != nil {
			t.Fatalf("leaf %d: %v", l.id, err)
		}
		out.leaves = append(out.leaves, rep)
	}
	return out
}

// TestKernels is the kernel table: RWR, RWRMulti, PageRankAdj, ReportAdj,
// Extract, AnalyzeGraph and every leaf's MetricsReport on every row of
// kernelRows, each result bit for bit the in-memory CSR row's. On the
// graphs of at most 200 nodes — an undirected one and a directed one,
// each with nodes without edges and self-loops — the CSR row's results
// also equal graphtest.Oracle's within 1e-9, with the oracle's extraction
// fed the kernels' own goodness so the key paths compare exactly, and
// each leaf's structure, strong components and hop plot equal the
// oracle's on that leaf exactly, its PageRank within 1e-8. Adding or
// removing an engine backend is one row of kernelRows.
func TestKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		extracts int
	}{
		{"undirected", oracleGraph(rng, 150, false), 6},
		{"directed", oracleGraph(rng, 120, true), 6},
		{"dblp", dblp.SmallFixture().Graph, 3},
	} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			q := kernelQueries(rng, g, c.extracts)
			rows := kernelRows(t, g)
			q.leaves = treeLeaves(rows[1].eng)
			var want kernelOut
			for _, row := range rows {
				got := runKernels(t, row, g, q)
				if row.eng == nil {
					want = got
					if rep := got.report; rep.Nodes != g.NumNodes() || rep.Edges != g.NumEdges() {
						t.Fatalf("report counts %d nodes / %d edges, the graph %d / %d", rep.Nodes, rep.Edges, g.NumNodes(), g.NumEdges())
					}
					if g.NumNodes() <= 200 {
						checkOracle(t, g, q, got)
					}
				} else {
					requireSameOut(t, row.name, want, got)
				}
				if row.premise != nil {
					row.premise(t)
				}
				if row.eng != nil {
					a1, _ := row.eng.Adj()
					if a2, _ := row.eng.Adj(); a1 != a2 || row.eng.Store().PinnedFrames() != 0 {
						t.Fatalf("%s: Adj not shared (%p, %p) or %d frames left pinned", row.name, a1, a2, row.eng.Store().PinnedFrames())
					}
				}
			}
		})
	}
}

// oracleGraph is a random weighted graph of n nodes whose last tenth has
// no edges, with a self-loop on every seventh node of the rest.
func oracleGraph(rng *rand.Rand, n int, directed bool) *graph.Graph {
	g := graph.NewWithNodes(n, directed)
	conn := n - n/10
	for i := 0; i < 3*n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(conn)), graph.NodeID(rng.Intn(conn)), 0.5+rng.Float64()*4)
	}
	for u := 0; u < conn; u += 7 {
		g.AddEdge(graph.NodeID(u), graph.NodeID(u), 1+rng.Float64())
	}
	g.Dedup()
	return g
}

// kernelQueries draws the table's queries over g: RWR from a node
// without edges when g has one, and extracts extractions from two to four
// sources, cycling through the combine modes, with budgets from 8 to 19
// and parallelism 1 to 3; on small graphs two more from nine sources.
func kernelQueries(rng *rand.Rand, g *graph.Graph, extracts int) kernelQuery {
	n := g.NumNodes()
	q := kernelQuery{sources: []graph.NodeID{graph.NodeID(n - 1), 0, graph.NodeID(n / 2)}}
	modes := []extract.CombineMode{extract.CombineAND, extract.CombineOR, extract.CombineKSoftAND}
	for i := range extracts {
		seen, k := map[graph.NodeID]bool{}, 2+rng.Intn(3)
		var sources []graph.NodeID
		for len(sources) < k {
			if s := graph.NodeID(rng.Intn(n)); g.Degree(s) > 0 && !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		q.extracts = append(q.extracts, struct {
			sources []graph.NodeID
			opts    extract.Options
		}{sources, extract.Options{Budget: 8 + rng.Intn(12), Mode: modes[i%3], K: 2, RWR: extract.RWROptions{Parallel: 1 + i%3}}})
	}
	if n <= 200 {
		// Nine sources: more than one fused key-path group, with a budget
		// that fills mid-group and one that does not.
		var wide []graph.NodeID
		for _, s := range rng.Perm(n - n/10)[:9] {
			wide = append(wide, graph.NodeID(s))
		}
		for i, budget := range []int{11, 40} {
			q.extracts = append(q.extracts, struct {
				sources []graph.NodeID
				opts    extract.Options
			}{wide, extract.Options{Budget: budget, Mode: modes[i+1], K: 3, MaxPathLen: 4 + i}})
		}
	}
	return q
}

// requireSameOut fails unless got equals want bit for bit.
func requireSameOut(t *testing.T, row string, want, got kernelOut) {
	t.Helper()
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d entries, csr %d", row, what, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s %s[%d] = %v, csr %v", row, what, i, b[i], a[i])
			}
		}
	}
	sameBits("rwr", want.rwr, got.rwr)
	for i := range want.multi {
		sameBits(fmt.Sprintf("rwrMulti[%d]", i), want.multi[i], got.multi[i])
	}
	sameBits("rwrSet", want.set, got.set)
	sameBits("pagerank", want.pagerank, got.pagerank)
	requireSameReport(t, row, want.report, got.report)
	for i := range want.extracts {
		equalResults(t, fmt.Sprintf("%s extract %d", row, i), want.extracts[i], got.extracts[i])
	}
	requireSameReport(t, row+" analysis", want.analyzed.AdjacencyReport, got.analyzed.AdjacencyReport)
	sameBits("analysis pagerank", want.analyzed.PageRank, got.analyzed.PageRank)
	if !reflect.DeepEqual(want.analyzed.TopRanked, got.analyzed.TopRanked) || !reflect.DeepEqual(want.analyzed.TopLabels, got.analyzed.TopLabels) ||
		want.analyzed.Directed != got.analyzed.Directed {
		t.Fatalf("%s: analysis ranking %v %v, csr %v %v", row, got.analyzed.TopRanked, got.analyzed.TopLabels, want.analyzed.TopRanked, want.analyzed.TopLabels)
	}
	if len(got.leaves) != len(want.leaves) {
		t.Fatalf("%s: %d leaf reports, csr %d", row, len(got.leaves), len(want.leaves))
	}
	for i, w := range want.leaves {
		g, leaf := got.leaves[i], fmt.Sprintf("%s leaf %d", row, i)
		requireSameReport(t, leaf, w.AdjacencyReport, g.AdjacencyReport)
		sameBits(fmt.Sprintf("leaf %d pagerank", i), w.PageRank, g.PageRank)
		if g.StrongComponents != w.StrongComponents || g.EffectiveDiameter != w.EffectiveDiameter || g.MaxHops != w.MaxHops ||
			!reflect.DeepEqual(g.TopRanked, w.TopRanked) {
			t.Fatalf("%s: %d strong components, diameters %d/%d, top %v; csr %d, %d/%d, %v", leaf,
				g.StrongComponents, g.EffectiveDiameter, g.MaxHops, g.TopRanked, w.StrongComponents, w.EffectiveDiameter, w.MaxHops, w.TopRanked)
		}
	}
}

// requireSameReport fails unless got equals want, the power-law fit
// compared by bits (it may be NaN).
func requireSameReport(t *testing.T, row string, want, got analysis.AdjacencyReport) {
	t.Helper()
	if a, b := math.Float64bits(want.Degree.PowerLawExponent), math.Float64bits(got.Degree.PowerLawExponent); a != b {
		t.Fatalf("%s: power-law fit bits %x, csr %x", row, b, a)
	}
	want.Degree.PowerLawExponent, got.Degree.PowerLawExponent = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: report\n%+v\ncsr\n%+v", row, got, want)
	}
}

// checkOracle compares the CSR row's results with graphtest.Oracle's.
func checkOracle(t *testing.T, g *graph.Graph, q kernelQuery, out kernelOut) {
	t.Helper()
	o := graphtest.NewOracle(g)
	near := func(what string, got, want []float64, tol float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
			}
		}
	}
	const restart = 0.15 // RWROptions' default
	near("rwr", out.rwr, o.RWR(restart, q.sources[0]), 1e-9)
	for i, s := range q.sources {
		near(fmt.Sprintf("rwrMulti[%d]", i), out.multi[i], o.RWR(restart, s), 1e-9)
	}
	near("rwrSet", out.set, o.RWR(restart, q.sources...), 1e-9)
	near("pagerank", out.pagerank, o.PageRank(0.85), 1e-9)

	s := checkStructure(t, "report", o, out.report)
	if s.SelfLoops == 0 || s.Histogram[0] == 0 {
		t.Fatalf("fixture has %d self-loops and %d nodes without edges, want some of each", s.SelfLoops, s.Histogram[0])
	}

	for i, x := range q.extracts {
		opts, err := x.opts.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		rwr, err := extract.RWRMulti(graph.ToCSR(g), x.sources, opts.RWR)
		if err != nil {
			t.Fatal(err)
		}
		res := out.extracts[i]
		want := o.Extract(extract.Goodness(rwr, opts.Mode, opts.K), x.sources, opts.Budget, opts.MaxPathLen)
		if !reflect.DeepEqual(res.Nodes, want) || res.Subgraph.NumEdges() != o.InducedEdges(want) {
			t.Fatalf("extract %d: nodes %v with %d edges, oracle %v with %d", i, res.Nodes, res.Subgraph.NumEdges(), want, o.InducedEdges(want))
		}
	}
	sccs := 0
	for i, l := range q.leaves {
		sub, _ := graph.Induced(graph.ToCSR(g), g.Directed(), g.Label, l.members)
		lo, rep, what := graphtest.NewOracle(sub), out.leaves[i], fmt.Sprintf("leaf %d", l.id)
		checkStructure(t, what, lo, rep.AdjacencyReport)
		hops := lo.Hops()
		exact := analysis.ComputeHopPlot(graph.ToCSR(sub), 0, nil)
		if rep.StrongComponents != lo.StrongComponents() || rep.MaxHops != hops.MaxHops || rep.EffectiveDiameter != hops.EffectiveDiameter ||
			!reflect.DeepEqual(exact.Counts, hops.Counts) {
			t.Fatalf("%s: %d strong components, diameters %d/%d, hop plot %v; oracle %d, %d/%d, %v", what,
				rep.StrongComponents, rep.EffectiveDiameter, rep.MaxHops, exact.Counts, lo.StrongComponents(), hops.EffectiveDiameter, hops.MaxHops, hops.Counts)
		}
		// Report runs PageRank to its default threshold, 1e-9 in L1.
		near(what+" pagerank", rep.PageRank, lo.PageRank(0.85), 1e-8)
		sccs += rep.StrongComponents - rep.WeakComponents
	}
	if g.Directed() && sccs == 0 {
		t.Fatal("no directed leaf splits a weak component into strong ones")
	}
}

// checkStructure compares rep with the oracle's structure report and
// returns the latter.
func checkStructure(t *testing.T, what string, o *graphtest.Oracle, rep analysis.AdjacencyReport) graphtest.Structure {
	t.Helper()
	s := o.Structure()
	if rep.Nodes != o.N() || rep.HalfEdges != s.HalfEdges || rep.Edges != s.Edges || rep.SelfLoops != s.SelfLoops ||
		rep.WeakComponents != s.WeakComponents || rep.LargestComponent != s.LargestComponent ||
		rep.Degree.Min != s.MinDegree || rep.Degree.Max != s.MaxDegree || math.Abs(rep.Degree.Mean-s.MeanDegree) > 1e-9 ||
		!reflect.DeepEqual(rep.Degree.Histogram, s.Histogram) {
		t.Fatalf("%s %+v, oracle %+v", what, rep, s)
	}
	return s
}

// equalResults requires two extraction results to be bit-identical.
func equalResults(t *testing.T, tag string, want, got *extract.Result) {
	t.Helper()
	if w, g := resultKey(want), resultKey(got); w != g {
		t.Fatalf("%s: result\n%s\nwant\n%s", tag, g, w)
	}
}

// resultKey spells out every bit of res: nodes, sources, iterations,
// goodness, labels and subgraph edges.
func resultKey(res *extract.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes %v sources %v iterations %d total %x\n", res.Nodes, res.Sources, res.Iterations, math.Float64bits(res.TotalGoodness))
	for i, gd := range res.Goodness {
		fmt.Fprintf(&b, "%x %q, ", math.Float64bits(gd), res.Subgraph.Label(graph.NodeID(i)))
	}
	res.Subgraph.Edges(func(u, v graph.NodeID, w float64) bool {
		fmt.Fprintf(&b, "%d-%d %x, ", u, v, math.Float64bits(w))
		return true
	})
	return b.String()
}
