package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/wire"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/storage"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timed runs fn reps times and returns the median duration.
func timed(reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		begin := time.Now()
		fn()
		d[i] = float64(time.Since(begin))
	}
	return time.Duration(medianOf(d))
}

// fixtureProbes times the layers on the fixture itself, independent of
// the workload's traffic: each number is one layer called from outside,
// the way the workloads reach it. It returns the memory engine it built,
// which compute-mem's engine replay and the cross-backend checks reuse.
func fixtureProbes(job *wire.Job, m map[string]float64) (*core.Engine, error) {
	f, err := os.Open(job.Edges)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	g.Dedup()
	reps := 3
	if job.Quick {
		reps = 1
	}

	// graph: CSR build, one full edge sweep, sharded against serial PageRank.
	var csr *graph.CSR
	m["graph.to_csr_ms"] = ms(timed(reps, func() { csr = graph.ToCSR(g) }))
	csr.WeightedDegrees()
	half := float64(csr.HalfEdges())
	sweep := func(adj graph.EdgeSweeper, n int) func() {
		return func() {
			total := 0.0
			if err := adj.SweepEdges(0, graph.NodeID(n), func(_ graph.NodeID, _ []graph.NodeID, w []float64) bool {
				for _, x := range w {
					total += x
				}
				return true
			}); err != nil {
				panic(err) // a probe over a file this process just built
			}
			sink += total
		}
	}
	m["graph.sweep_ns_per_halfedge"] = float64(timed(2*reps+1, sweep(csr, csr.N()))) / half
	auto := timed(reps, func() { sink += analysis.PageRankAdj(csr, analysis.PageRankOptions{})[0] })
	serial := timed(reps, func() { sink += analysis.PageRankAdj(csr, analysis.PageRankOptions{Shards: 1})[0] })
	m["analysis.pagerank_ms"] = ms(auto)
	m["graph.shard_speedup"] = float64(serial) / float64(auto) // > 1: sharding wins
	m["analysis.report_adj_ms"] = ms(timed(reps, func() {
		sink += float64(analysis.ReportAdjSharded(csr, false, 0).WeakComponents)
	}))

	// partition, then the hierarchy on top of it and its file.
	var part *partition.Result
	partD := timed(1, func() {
		part, err = partition.Partition(g, partition.Options{K: job.K, Seed: job.Seed})
	})
	if err != nil {
		return nil, err
	}
	weight := 0.0
	g.Edges(func(_, _ graph.NodeID, w float64) bool { weight += w; return true })
	m["partition.partition_s"] = partD.Seconds()
	m["partition.edge_cut_ratio"] = part.Cut / weight

	var mem *core.Engine
	buildD := timed(1, func() {
		mem, err = core.BuildEngine(g, core.BuildConfig{K: job.K, Levels: job.Levels, Seed: job.Seed})
	})
	if err != nil {
		return nil, err
	}
	// Build partitions every level; what is left after taking one
	// top-level partition out is the rest of the recursion plus
	// connectivity and statistics.
	m["gtree.build_s"] = max(buildD-partD, 0).Seconds()
	saved := filepath.Join(filepath.Dir(job.SpanFile), "probe-"+job.Workload+".gtree")
	defer os.Remove(saved)
	m["gtree.save_s"] = timed(1, func() { err = mem.SaveTree(saved, 0) }).Seconds()
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(saved)
	if err != nil {
		return nil, err
	}
	m["gtree.file_bytes_per_halfedge"] = float64(st.Size()) / half
	filePages := int(st.Size() / 4096)

	if err := navigationProbes(job, mem, reps, m); err != nil {
		return nil, err
	}
	if err := pagedProbes(job, filePages, half, reps, sweep, m); err != nil {
		return nil, err
	}
	return mem, storageProbes(job, filePages, reps, m)
}

// navigationProbes times what a navigation request does per call: scene
// construction, layout and SVG, label search, a cold leaf read and the
// leaf report.
func navigationProbes(job *wire.Job, mem *core.Engine, reps int, m map[string]float64) error {
	t := mem.Tree()
	nc := t.NumCommunities()
	perCall := func(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(calls) }
	deep := gtree.TomahawkOptions{Grandchildren: true}
	m["gtree.scene_us"] = perCall(timed(2*reps+1, func() {
		for id := 0; id < nc; id++ {
			s, _ := mem.SceneAt(gtree.TreeID(id), gtree.TomahawkOptions{})
			sink += float64(len(s.Edges))
		}
	}), nc)
	scenes := make([]*gtree.Scene, nc)
	layouts := make([]*layout.SceneLayout, nc)
	for id := range scenes {
		scenes[id] = t.Tomahawk(gtree.TreeID(id), deep)
	}
	m["layout.scene_us"] = perCall(timed(2*reps+1, func() {
		for id, s := range scenes {
			layouts[id] = layout.LayoutScene(t, s, 450)
		}
	}), nc)
	m["render.scene_svg_us"] = perCall(timed(2*reps+1, func() {
		for id, s := range scenes {
			sink += float64(len(render.SceneSVG(t, s, layouts[id], 900)))
		}
	}), nc)

	// Disk side: label index and leaves through navigate's small pool, so
	// a leaf read finds its pages evicted by the leaves read in between.
	eng, err := core.OpenEngine(job.Tree, job.NavPool)
	if err != nil {
		return err
	}
	defer eng.Close()
	labels := mem.Graph().Labels()
	var prefixes []string
	for i := 0; i < len(labels) && len(prefixes) < 200; i += max(len(labels)/200, 1) {
		if r := []rune(labels[i]); len(r) > 0 {
			prefixes = append(prefixes, string(r[:min(len(r), 4)]))
		}
	}
	if _, err := eng.SearchLabelPrefix("A", 1); err != nil { // loads the index
		return err
	}
	m["gtree.label_prefix_us"] = perCall(timed(2*reps+1, func() {
		for _, p := range prefixes {
			hits, _ := eng.SearchLabelPrefix(p, 10)
			sink += float64(len(hits))
		}
	}), len(prefixes))
	leaves := t.Leaves()
	var loadErr error
	m["gtree.load_leaf_us"] = perCall(timed(reps, func() {
		for _, id := range leaves {
			sub, _, err := eng.Store().LoadLeaf(id)
			if err != nil {
				loadErr = err
				return
			}
			sink += float64(sub.NumNodes())
		}
	}), len(leaves))
	if loadErr != nil {
		return loadErr
	}
	bySize := append([]gtree.TreeID(nil), leaves...)
	sort.Slice(bySize, func(i, j int) bool { return t.Node(bySize[i]).Size < t.Node(bySize[j]).Size })
	sub, _, err := eng.LeafSubgraph(bySize[len(bySize)/2])
	if err != nil {
		return err
	}
	m["analysis.leaf_report_ms"] = ms(timed(2*reps+1, func() {
		sink += float64(analysis.Report(sub, 0, 1).Nodes)
	}))
	m["core.session_open_ms"] = ms(timed(2*reps+1, func() {
		e, err := core.OpenEngine(job.Tree, job.NavPool)
		if err == nil {
			e.Close()
		}
	}))
	return nil
}

// pagedProbes sweeps the paged CSR cold (compute-paged's pool, far below
// the file, so every pass re-reads it), warm (pool above the file, after a
// filling pass) and tiered (session-skewed's pool and budget, after
// promotion passes).
func pagedProbes(job *wire.Job, filePages int, half float64, reps int,
	sweep func(graph.EdgeSweeper, int) func(), m map[string]float64) error {
	one := func(pool int, budget int64) (float64, *gtree.TierInfo, error) {
		store, err := gtree.OpenFile(job.Tree, pool)
		if err != nil {
			return 0, nil, err
		}
		defer store.Close()
		store.SetTierBudget(budget)
		paged, err := store.PagedCSR()
		if err != nil {
			return 0, nil, err
		}
		var adj graph.EdgeSweeper = paged
		if budget > 0 {
			// Promotion follows a query: sweep, then let the tier pin what
			// the sweep made hot, a few times over.
			for i := 0; i < 4; i++ {
				view := paged.Tiered()
				sweep(view, paged.N())()
				view.Promote()
			}
			adj = paged.Tiered()
		} else {
			sweep(paged, paged.N())()
		}
		ns := float64(timed(2*reps+1, sweep(adj, paged.N()))) / half
		return ns, store.TierInfo(), paged.Err()
	}
	var err error
	if m["gtree.paged_sweep_ns_per_halfedge.cold"], _, err = one(job.PagedPool, 0); err != nil {
		return err
	}
	if m["gtree.paged_sweep_ns_per_halfedge.warm"], _, err = one(filePages+64, 0); err != nil {
		return err
	}
	ns, tier, err := one(job.TierPool, job.TierBudget)
	if err != nil {
		return err
	}
	m["gtree.tiered_sweep_ns_per_halfedge"] = ns
	if tier == nil || tier.Bytes > tier.Budget {
		return fmt.Errorf("tier probe: no tier state, or fragments over budget: %+v", tier)
	}
	return nil
}

// storageProbes times a checksummed page read against a bare read of the
// same bytes, and a pool Get/Release pair on a resident page.
func storageProbes(job *wire.Job, filePages, reps int, m map[string]float64) error {
	pager, err := storage.Open(job.Tree, true)
	if err != nil {
		return err
	}
	defer pager.Close()
	n := int(pager.NumPages())
	var readErr error
	perPage := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n-1) }
	m["storage.readpage_us"] = perPage(timed(2*reps+1, func() {
		for id := 1; id < n; id++ {
			b, err := pager.ReadPage(storage.PageID(id))
			if err != nil {
				readErr = err
				return
			}
			sink += float64(b[0])
		}
	}))
	raw, err := os.Open(job.Tree)
	if err != nil {
		return err
	}
	defer raw.Close()
	buf := make([]byte, pager.PageSize())
	m["storage.rawread_us"] = perPage(timed(2*reps+1, func() {
		for id := 1; id < n; id++ {
			if _, err := raw.ReadAt(buf, int64(id)*int64(len(buf))); err != nil {
				readErr = err
				return
			}
			sink += float64(buf[0])
		}
	}))
	pool := storage.NewBufferPool(pager, filePages+64)
	get := func() {
		for id := 1; id < n; id++ {
			b, err := pool.Get(storage.PageID(id))
			if err != nil {
				readErr = err
				return
			}
			sink += float64(b[0])
			pool.Release(storage.PageID(id))
		}
	}
	get() // fill
	m["storage.pool_get_ns"] = perPage(timed(4*reps+1, get)) * 1e3
	return readErr
}
