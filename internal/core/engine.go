// Package core is the GMine engine: it ties the substrates together into
// the system the paper demonstrates — build a G-Tree over a large graph,
// persist it to a single file, navigate it interactively with Tomahawk
// scenes, query labels, compute §III.B mining metrics on focused
// subgraphs, extract connection subgraphs, and render everything to SVG.
//
// Every engine reads its graph from one G-Tree file through a gtree.Store.
// OpenEngine opens the file on disk. BuildEngine builds the tree, saves it
// into an in-memory file and opens that, with the whole graph promoted to
// the store's resident tier. There is no second, memory-only read path:
// a built engine answers every query the way an opened engine with a
// covering tier budget does.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/storage"
)

// BuildConfig configures engine construction over an in-memory graph.
type BuildConfig struct {
	// K is the hierarchy fanout (paper: 5).
	K int
	// Levels is the number of hierarchy levels including the root
	// (paper: 5).
	Levels int
	// Seed drives all randomized steps.
	Seed int64
	// Parallel bounds concurrent community partitionings per level
	// (0 = GOMAXPROCS); the result is identical for any value.
	Parallel int
}

// Engine is a GMine session over one graph, held as a G-Tree store:
// topology and connectivity resident, leaves, the label index and the
// graph's CSR read on demand through the store's buffer pool, or from its
// resident tier while the tier budget covers the graph. The store is the
// engine's only copy of the graph, whichever constructor made it.
type Engine struct {
	store *gtree.Store
}

// BuildEngine partitions g recursively, saves the G-Tree into an
// in-memory file at the default page size and opens it as a store with
// the default pool, promoting the whole graph to the resident tier and
// loading the label index. Neither g nor the built tree is kept.
func BuildEngine(g *graph.Graph, cfg BuildConfig) (*Engine, error) {
	t, err := gtree.Build(g, gtree.BuildOptions{
		K:         cfg.K,
		Levels:    cfg.Levels,
		Parallel:  cfg.Parallel,
		Partition: partition.Options{Seed: cfg.Seed},
	})
	if err != nil {
		return nil, err
	}
	f := storage.NewMemFile(nil)
	if err := gtree.SaveTo(t, graph.ToCSR(g), g.Directed(), g.Label, f, 0); err != nil {
		return nil, err
	}
	st, err := gtree.OpenWith(f, 0)
	if err == nil {
		err = st.PromoteTier()
	}
	if err == nil {
		err = st.PreloadLabels()
	}
	if err != nil {
		return nil, err // nothing to release: the store's file is memory
	}
	return &Engine{store: st}, nil
}

// SaveTree persists the engine's G-Tree (leaf subgraphs, label index and
// the graph's paged CSR section) into a single page file at path,
// re-encoding it from the store at pageSize (0 = default); see
// gtree.Store.Save.
func (e *Engine) SaveTree(path string, pageSize int) error {
	return e.store.Save(path, pageSize)
}

// OpenEngine opens a persisted G-Tree file as a disk-backed engine.
// poolPages bounds the buffer pool (0 = default).
func OpenEngine(path string, poolPages int) (*Engine, error) {
	return OpenEngineWrapped(path, poolPages, nil)
}

// OpenEngineWrapped is OpenEngine with an optional wrapper interposed over
// the store's backing file — the chaos-serving seam (a
// storage.FaultInjector slid in here puts the whole retry → fault latch →
// circuit-breaker stack under test against a live engine). nil wrap is
// OpenEngine.
func OpenEngineWrapped(path string, poolPages int, wrap func(storage.File) storage.File) (*Engine, error) {
	st, err := gtree.OpenFileWrapped(path, poolPages, wrap)
	if err != nil {
		return nil, err
	}
	return &Engine{store: st}, nil
}

// Close releases the engine's store and its file.
func (e *Engine) Close() error { return e.store.Close() }

// Tree returns the store's G-Tree: topology and connectivity, without
// leaf members (LeafSubgraph reads those).
func (e *Engine) Tree() *gtree.Tree { return e.store.Tree() }

// Graph reads the whole graph, labels included, out of the store into a
// new graph.Graph, or returns nil when a read fails. No engine query calls
// it; it stays for bench/layers' probes.
func (e *Engine) Graph() *graph.Graph {
	view, err := e.store.QueryView(context.Background())
	if err != nil || e.store.PreloadLabels() != nil {
		return nil
	}
	all := make([]graph.NodeID, view.Adj.N())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	g, _ := graph.Induced(view.Adj, e.store.Directed(), e.store.LabelOf, all)
	if view.Err() != nil {
		return nil
	}
	return g
}

// ErrPagedIO wraps an I/O or corruption fault hit while a query paged the
// graph from disk. It marks a backend (5xx-class) failure: the request
// was well-formed, the store misbehaved.
var ErrPagedIO = errors.New("core: paged graph read failed")

// Adj returns the engine's shared adjacency of the full graph for use
// outside a query: the resident tier's CSR while one is promoted (always,
// on a built engine), else the store's paged CSR, which pages neighbor
// ranges through the buffer pool. Queries open their own view instead
// (query), so their reads and faults are counted apart.
func (e *Engine) Adj() (graph.Adjacency, error) { return e.store.Adj() }

// SetPoolQuota does nothing: the buffer pool has one policy, plain LRU,
// and reserves no frames for any query. The method stays because
// bench/layers calls it; deleting it is a [benchmark] change first.
func (e *Engine) SetPoolQuota(int) {}

// SetSweepShards does nothing: whole-graph sweeps are always serial. The
// method stays because bench/layers calls it; deleting it is a
// [benchmark] change first.
func (e *Engine) SetSweepShards(int) {}

// SetTierBudget sets the store's hot/cold tiering byte budget (0 = off,
// the default of opened engines; a built engine starts at the decoded
// CSR's cost, promoted). With a budget, every whole-graph query solves on
// a gtree.TieredCSR. After each query the engine runs one promotion step:
// while the budget covers the decoded CSR, the first one loads the whole
// graph into memory and later queries read it from there; below that
// every read pages through the buffer pool — bit-identical results either
// way. Safe to call concurrently with queries: each query picks memory or
// pages once, when it opens, and keeps its pick.
func (e *Engine) SetTierBudget(bytes int64) { e.store.SetTierBudget(max(bytes, 0)) }

// query runs fn as one whole-graph query, the one prologue of the traced
// entries: it opens the query's gtree.QueryView, preloads the label index
// and hands fn the view, whose Adj fn solves on, then tags any error with
// tr's request ID. The view pins through a counted
// view of the buffer pool, latches the query's own faults, carries ctx
// into the blocked sweeps (a server timeout or client disconnect aborts
// the sweep at the next chunk boundary) and, while a tier budget is set,
// reads the resident graph if one was published as it opened.
//
// When tr is non-nil the view's acquisition is recorded as the "open"
// stage and the preload as "labels", debug traces get the memstats
// bracket, and when fn returns the query's I/O — pins (buffer pool Gets =
// hits + misses), hits/misses, evictions, load waits, the view's own
// faults, the row cursors' rows/pins, the sweeps' file reads and pages,
// retries and whether the query read the resident tier — is charged to
// the trace. This is the engine's "report what this query cost" seam: the
// counters come from the view the query read through, so they name this
// query's work, not the session's.
func (e *Engine) query(ctx context.Context, tr *obs.Trace, fn func(view *gtree.QueryView) error) (err error) {
	defer func() { err = tagTrace(tr, err) }()
	defer memStatsBracket(tr)()
	sp := tr.StartStage("open")
	view, err := e.store.QueryView(ctx)
	sp.End()
	if err != nil {
		// The CSR section's geometry does not match the file: the request
		// is fine, the store is not.
		return fmt.Errorf("%w: %v", ErrPagedIO, err)
	}
	defer func() {
		if tr != nil {
			qc := view.Counts()
			tr.Count("pool.pins", int64(qc.Pool.Hits+qc.Pool.Misses))
			tr.Count("pool.hits", int64(qc.Pool.Hits))
			tr.Count("pool.misses", int64(qc.Pool.Misses))
			tr.Count("pool.evictions", int64(qc.Pool.Evictions))
			tr.Count("pool.load_waits", int64(qc.Pool.LoadWaits))
			tr.Count("pool.faults", int64(qc.Faults))
			// Row reads of the local kernels (key paths, induce):
			// pins/rows near the page count over the row count means the
			// cursors' sticky pins held; near 3 means every row paid the
			// pool on its own.
			tr.Count("pool.cursor.rows", qc.CursorRows)
			tr.Count("pool.cursor.pins", qc.CursorPins)
			// Whole-graph sweeps read the file directly, a window of pages
			// per read, and pin nothing: pool.* above is cursors and blobs.
			tr.Count("sweep.reads", qc.SweepReads)
			tr.Count("sweep.pages", qc.SweepPages)
			// Transient-read recovery across this query's window. The pager
			// counters are store-wide, so under concurrent queries the delta
			// attributes overlapping retries to each of them — approximate
			// by design, zero when the store read clean.
			tr.Count("pool.retries", int64(qc.Retry.Retries))
			tr.Count("pool.healed", int64(qc.Retry.Healed))
			if qc.Tiered {
				resident := int64(0)
				if qc.Resident {
					resident = 1
				}
				tr.Count("tier.resident", resident)
			}
		}
		// Query-amortized promotion: load the whole graph once the budget
		// covers it.
		view.Promote()
	}()
	sp = tr.StartStage("labels")
	err = e.preloadLabels()
	sp.End()
	if err != nil {
		return err
	}
	return fn(view)
}

// memStatsBracket returns a closure charging runtime.ReadMemStats deltas
// (mallocs, total allocated bytes) to the trace — debug mode only:
// ReadMemStats stops the world, so it never runs on the production query
// path.
func memStatsBracket(tr *obs.Trace) func() {
	if !tr.Debug() {
		return func() {}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.Count("mem.mallocs", int64(after.Mallocs-before.Mallocs))
		tr.Count("mem.allocBytes", int64(after.TotalAlloc-before.TotalAlloc))
	}
}

// tagTrace stamps a query error with the trace's request ID, so the
// message a client receives and the server's structured log line for the
// same request carry the same identifier (nil-safe on both sides).
func tagTrace(tr *obs.Trace, err error) error {
	if tr == nil || err == nil {
		return err
	}
	return obs.TagRequest(err, tr.ID)
}

// Store returns the engine's G-Tree store.
func (e *Engine) Store() *gtree.Store { return e.store }

// --- Navigation ----------------------------------------------------------

// SceneAt builds the Tomahawk scene focused on community id. The engine
// keeps no navigation state: a caller walks the tree itself
// (Tree().Node(id).Children) and addresses each scene by id, so concurrent
// callers (e.g. the HTTP server) share one engine.
func (e *Engine) SceneAt(id gtree.TreeID, opts gtree.TomahawkOptions) (*gtree.Scene, error) {
	if !e.Tree().Valid(id) {
		return nil, fmt.Errorf("core: invalid community %d", id)
	}
	return e.Tree().Tomahawk(id, opts), nil
}

// RenderSceneAt renders the Tomahawk scene focused on community id to SVG
// (see SceneAt).
func (e *Engine) RenderSceneAt(id gtree.TreeID, size float64, opts gtree.TomahawkOptions) (string, error) {
	s, err := e.SceneAt(id, opts)
	if err != nil {
		return "", err
	}
	l := layout.LayoutScene(e.Tree(), s, size/2)
	return render.SceneSVG(e.Tree(), s, l, size), nil
}

// --- Leaf access ----------------------------------------------------------

// LeafSubgraph returns the induced subgraph of a leaf community (local
// coordinates, labels carried) and the mapping back to original node ids,
// decoded from the leaf's blob in the store. An id that names no leaf is
// the caller's error; failing to read or decode a leaf's blob is the
// store's, and wraps ErrPagedIO.
func (e *Engine) LeafSubgraph(id gtree.TreeID) (*graph.Graph, []graph.NodeID, error) {
	sub, members, err := e.store.LoadLeaf(id)
	if err != nil && e.Tree().Valid(id) && e.Tree().Node(id).IsLeaf() {
		err = fmt.Errorf("%w: %v", ErrPagedIO, err)
	}
	return sub, members, err
}

// RenderLeaf force-lays-out a leaf community's subgraph and renders it,
// highlighting the given original-graph nodes.
func (e *Engine) RenderLeaf(id gtree.TreeID, size float64, highlight []graph.NodeID, seed int64) (string, error) {
	sub, members, err := e.LeafSubgraph(id)
	if err != nil {
		return "", err
	}
	local := map[graph.NodeID]graph.NodeID{}
	for i, u := range members {
		local[u] = graph.NodeID(i)
	}
	var hl []graph.NodeID
	for _, h := range highlight {
		if l, ok := local[h]; ok {
			hl = append(hl, l)
		}
	}
	pos := layout.ForceLayout(sub, layout.Circle{R: size / 2 * 0.9}, layout.ForceOptions{Seed: seed})
	return render.SubgraphSVG(sub, pos, hl, size), nil
}

// MetricsReport computes the §III.B metric suite on a leaf community's
// subgraph: degree distribution, hops, weak/strong components, PageRank.
func (e *Engine) MetricsReport(id gtree.TreeID, seed int64) (analysis.SubgraphReport, error) {
	sub, _, err := e.LeafSubgraph(id)
	if err != nil {
		return analysis.SubgraphReport{}, err
	}
	return analysis.Report(sub, 0, seed), nil
}

// --- Label queries ---------------------------------------------------------

// LabelHit re-exports gtree's label query result.
type LabelHit = gtree.LabelHit

// FindLabel returns every node whose label is exactly label, in node
// order, from the store's persisted label index. Unlabeled nodes are not
// in the index, so FindLabel("") finds nothing.
func (e *Engine) FindLabel(label string) ([]LabelHit, error) {
	return e.store.FindLabel(label)
}

// SearchLabelPrefix returns the nodes whose label starts with prefix, in
// (label, node) order, from the store's persisted label index: the first
// limit of them, or all of them when limit <= 0.
func (e *Engine) SearchLabelPrefix(prefix string, limit int) ([]LabelHit, error) {
	return e.store.SearchLabelPrefix(prefix, limit)
}

// --- Extraction --------------------------------------------------------------

// withFaultCheck runs fn, one solve of a whole-graph query, and classifies
// its outcome. A paged adjacency cannot surface I/O faults through the
// Adjacency methods; the query's own view latches them instead. Three
// checks, in order:
//
//  1. A cancelled solve returns ctx's error unwrapped. Kernels without an
//     error surface, like PageRankAdj, stop early and return nil — the
//     check here is what turns that into the error. It is never ErrPagedIO
//     and never counts against the session's circuit breaker upstream:
//     nothing is wrong with the store when a client hangs up.
//  2. If the query's own view latched a fault, the solve read bad or
//     missing rows: ErrPagedIO, a backend (5xx-class) failure.
//  3. Otherwise the solve's own error (a validation error stays a client
//     error), or nil.
//
// The latch is per view and every query opens its own, so a fault on
// another view — a concurrent query's or the tier promoter's — fails
// neither a clean query nor a validation error's classification. This
// helper is the single home of the discipline; every whole-graph query
// path (Extract, AnalyzeGraph) must go through it.
func withFaultCheck(ctx context.Context, view *gtree.QueryView, fn func() error) error {
	err := fn()
	if err == nil {
		err = ctxErr(ctx)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if ferr := view.Err(); ferr != nil {
		return fmt.Errorf("%w: %v", ErrPagedIO, ferr)
	}
	return err
}

// ctxErr is a nil-safe ctx.Err().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// preloadLabels loads the persisted label index up front: result labels
// are annotated through an error-less lookup, so a failed index read must
// fail the query instead of silently stripping labels.
func (e *Engine) preloadLabels() error {
	if err := e.store.PreloadLabels(); err != nil {
		return fmt.Errorf("%w: %v", ErrPagedIO, err)
	}
	return nil
}

// Extract runs the multi-source connection subgraph extraction (§IV) over
// the query's view of the graph: the resident tier's CSR when promoted,
// else out of core on the paged CSR, with bit-identical results either
// way. Any paged read fault during the solve fails it with ErrPagedIO.
func (e *Engine) Extract(sources []graph.NodeID, opts extract.Options) (*extract.Result, error) {
	return e.ExtractTraced(context.Background(), nil, sources, opts)
}

// ExtractTraced is Extract recording per-stage timings ("open" adjacency
// acquisition, "labels" index preload, "solve" with "rwr"/"expand"/
// "induce" sub-stages) and pool pin counts on tr, and tagging any error
// with tr's request ID. A nil tr makes every hook a no-op — Extract
// simply calls this with nil.
//
// ctx cancels the solve cooperatively: the RWR power iterations poll it
// per pass and the paged sweeps per chunk, so a server timeout or client
// disconnect stops the work promptly, releases the query's pins, and
// surfaces ctx's error (never ErrPagedIO — see
// withFaultCheck).
func (e *Engine) ExtractTraced(ctx context.Context, tr *obs.Trace, sources []graph.NodeID, opts extract.Options) (res *extract.Result, err error) {
	if tr != nil {
		opts.StageHook = tr.ObserveStage
	}
	if opts.RWR.Ctx == nil {
		opts.RWR.Ctx = ctx
	}
	err = e.query(ctx, tr, func(view *gtree.QueryView) error {
		sp := tr.StartStage("solve")
		defer sp.End()
		return withFaultCheck(ctx, view, func() error {
			var err error
			res, err = extract.ConnectionSubgraphAdj(view.Adj, e.store.Directed(), e.store.LabelOf, sources, opts)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// GraphAnalysis is the whole-graph analysis suite of AnalyzeGraph:
// structure metrics straight off the adjacency plus PageRank, with the
// top-ranked nodes resolved to labels.
type GraphAnalysis struct {
	analysis.AdjacencyReport
	Directed bool
	// PageRank is the full rank vector; TopRanked/TopLabels are the k
	// highest-ranked nodes (ties by id) and their labels ("" when
	// unlabeled), index-aligned.
	PageRank  []float64
	TopRanked []graph.NodeID
	TopLabels []string
}

// AnalyzeGraph computes the whole-graph analysis suite — degree
// distribution, connected components, self-loops and PageRank — over the
// query's view: in memory on the resident tier, out of core on the paged
// CSR with resident memory bounded by the buffer pool. Results are
// bit-identical either way. topK bounds the
// ranked listing (<=0 means 10). The paged path runs under the same fault
// discipline as Extract: any I/O or corruption fault during the sweep
// fails the call with ErrPagedIO instead of returning a silently wrong
// report.
func (e *Engine) AnalyzeGraph(opts analysis.PageRankOptions, topK int) (*GraphAnalysis, error) {
	return e.AnalyzeGraphTraced(context.Background(), nil, opts, topK)
}

// AnalyzeGraphTraced is AnalyzeGraph with per-stage timings ("open",
// "labels", "report", "pagerank", "rank") and pool pin counts recorded on
// tr (nil tr = untraced; see ExtractTraced). ctx cancels both sweeps
// cooperatively at chunk/iteration boundaries.
func (e *Engine) AnalyzeGraphTraced(ctx context.Context, tr *obs.Trace, opts analysis.PageRankOptions, topK int) (res *GraphAnalysis, err error) {
	if topK <= 0 {
		topK = 10
	}
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	directed := e.store.Directed()
	res = &GraphAnalysis{Directed: directed}
	// One query view covers both sweeps: the structure report warms the
	// pages PageRank is about to walk, and both charge the same counters.
	err = e.query(ctx, tr, func(view *gtree.QueryView) error {
		sp := tr.StartStage("report")
		err := withFaultCheck(ctx, view, func() error {
			res.AdjacencyReport = analysis.ReportAdj(view.Adj, directed)
			return nil
		})
		sp.End()
		if err != nil {
			return err
		}
		// The iteration gets the same check on the same view.
		sp = tr.StartStage("pagerank")
		err = withFaultCheck(ctx, view, func() error {
			res.PageRank = analysis.PageRankAdj(view.Adj, opts)
			return nil
		})
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.StartStage("rank")
		defer sp.End()
		res.TopRanked = analysis.TopKByRank(res.PageRank, topK)
		res.TopLabels = make([]string, len(res.TopRanked))
		for i, u := range res.TopRanked {
			res.TopLabels[i] = e.store.LabelOf(u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ExtractByLabels resolves labels to nodes through the label index (a
// label names its lowest matching node id) and extracts their connection
// subgraph.
func (e *Engine) ExtractByLabels(labels []string, opts extract.Options) (*extract.Result, error) {
	var sources []graph.NodeID
	for _, l := range labels {
		hits, err := e.FindLabel(l)
		if err != nil {
			return nil, err
		}
		if len(hits) == 0 {
			return nil, fmt.Errorf("core: label %q not found", l)
		}
		sources = append(sources, hits[0].Node)
	}
	return e.Extract(sources, opts)
}

// ExtractAndBuild is the Fig 6 pipeline: extract a subgraph of interest
// and hierarchically partition it for communities-within-communities
// visualization, returning a new built engine over the extracted
// subgraph.
func (e *Engine) ExtractAndBuild(sources []graph.NodeID, eopts extract.Options, bcfg BuildConfig) (*Engine, *extract.Result, error) {
	res, err := e.Extract(sources, eopts)
	if err != nil {
		return nil, nil, err
	}
	sub, err := BuildEngine(res.Subgraph, bcfg)
	if err != nil {
		return nil, nil, err
	}
	return sub, res, nil
}

// RenderExtraction lays out and renders an extraction result, highlighting
// the source nodes.
func RenderExtraction(res *extract.Result, size float64, seed int64) string {
	pos := layout.ForceLayout(res.Subgraph, layout.Circle{R: size / 2 * 0.9}, layout.ForceOptions{Seed: seed})
	return render.SubgraphSVG(res.Subgraph, pos, res.Sources, size)
}

// --- Whole-graph baseline (E8) ------------------------------------------------

// FullDrawBaseline performs the naive alternative GMine replaces: a
// force-directed layout of the entire graph in one shot. Used by the E8
// scalability experiment; interactive systems cannot afford this per
// interaction on large graphs.
func FullDrawBaseline(g *graph.Graph, iterations int, seed int64) []layout.Point {
	return layout.ForceLayout(g, layout.Circle{R: 1000}, layout.ForceOptions{Iterations: iterations, Seed: seed})
}
