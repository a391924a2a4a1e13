package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/obs"
)

// tracedDiskEngine builds the small fixture, persists it and reopens it
// disk-backed with a modest pool, so queries actually page.
func tracedDiskEngine(t *testing.T) *Engine {
	t.Helper()
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

// stageNames flattens a trace's stage spans to their names.
func stageNames(tr *obs.Trace) map[string]bool {
	out := map[string]bool{}
	for _, st := range tr.Stages() {
		out[st.Name] = true
	}
	return out
}

// TestExtractTracePinsMatchPoolCounters is the acceptance criterion: the
// pool-pin count a paged extraction reports in its stage trace must equal
// the buffer pool's own Gets (hits+misses) for that query — asserted
// against the pool counter delta, not eyeballed. The first extraction
// warms the label index (pinned through the shared pool, outside the
// query's counted view); from the second query on, every pin goes through
// the query's counted view, so trace and pool must agree exactly.
func TestExtractTracePinsMatchPoolCounters(t *testing.T) {
	eng := tracedDiskEngine(t)
	sources := []graph.NodeID{1, 5}
	opts := extract.Options{Budget: 10}

	if _, err := eng.Extract(sources, opts); err != nil { // warm labels
		t.Fatal(err)
	}

	before := eng.Store().PoolInfo()
	tr := obs.NewTrace("test-req")
	if _, err := eng.ExtractTraced(context.Background(), tr, sources, opts); err != nil {
		t.Fatal(err)
	}
	after := eng.Store().PoolInfo()

	poolPins := int64((after.Hits + after.Misses) - (before.Hits + before.Misses))
	tracePins := tr.CountValue("pool.pins")
	if tracePins == 0 {
		t.Fatal("traced paged extraction recorded zero pool pins")
	}
	if tracePins != poolPins {
		t.Errorf("trace pins %d != pool counter delta %d", tracePins, poolPins)
	}
	if got := tr.CountValue("pool.hits") + tr.CountValue("pool.misses"); got != tracePins {
		t.Errorf("pins %d != hits+misses %d", tracePins, got)
	}
	if tr.CountValue("pool.faults") != 0 {
		t.Errorf("clean run reported %d faults", tr.CountValue("pool.faults"))
	}

	names := stageNames(tr)
	for _, want := range []string{"open", "labels", "solve", "rwr", "expand", "induce"} {
		if !names[want] {
			t.Errorf("trace missing stage %q (have %v)", want, names)
		}
	}
}

// twoHopSources returns two fixture nodes two hops apart, so the goodness
// is positive somewhere and an extraction's key-path rounds actually read
// rows through cursors.
func twoHopSources(t *testing.T) []graph.NodeID {
	t.Helper()
	g := dblp.SmallFixture().Graph
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			for _, e2 := range g.Neighbors(e.To) {
				if e2.To != graph.NodeID(u) && !g.HasEdge(graph.NodeID(u), e2.To) {
					return []graph.NodeID{graph.NodeID(u), e2.To}
				}
			}
		}
	}
	t.Fatal("fixture has no two nodes two hops apart")
	return nil
}

// TestExtractTraceLoadWaits: a trace says how often its query waited on
// another query's in-flight load of a page (pool.load_waits, read once at
// release beside pool.pins). Four concurrent extractions may wait on and
// evict each other's cursor pages any number of times, but warm-up aside
// every pin goes through some query's counted view, so each of the
// traces' pool counts adds up to the pool's own counter exactly. The two
// whole-graph analyses running beside them sweep the file and add file
// reads, not pins.
func TestExtractTraceLoadWaits(t *testing.T) {
	eng := tracedDiskEngine(t)
	sources := twoHopSources(t)
	opts := extract.Options{Budget: 10}
	if _, err := eng.Extract(sources, opts); err != nil { // warm labels + wdeg
		t.Fatal(err)
	}
	before := eng.Store().PoolInfo()
	var queries []func(tr *obs.Trace) error
	for range 2 {
		queries = append(queries, func(tr *obs.Trace) error {
			_, err := eng.AnalyzeGraphTraced(context.Background(), tr, analysis.PageRankOptions{}, 5)
			return err
		})
	}
	for range 4 {
		queries = append(queries, func(tr *obs.Trace) error {
			_, err := eng.ExtractTraced(context.Background(), tr, sources, opts)
			return err
		})
	}
	traces := make([]*obs.Trace, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		traces[i] = obs.NewTrace("test-req")
		wg.Add(1)
		go func(tr *obs.Trace) {
			defer wg.Done()
			if err := q(tr); err != nil {
				t.Error(err)
			}
		}(traces[i])
	}
	wg.Wait()
	after := eng.Store().PoolInfo()
	for i, tr := range traces[:2] {
		if tr.CountValue("pool.pins") != 0 || tr.CountValue("sweep.reads") == 0 {
			t.Errorf("whole-graph query %d: %d pins and %d sweep reads, want none and some",
				i, tr.CountValue("pool.pins"), tr.CountValue("sweep.reads"))
		}
	}
	var hits, misses, evictions, waits, pins int64
	for _, tr := range traces {
		reported := false
		for _, c := range tr.Snapshot().Counts {
			reported = reported || c.Name == "pool.load_waits"
		}
		if !reported {
			t.Fatal("trace carries no pool.load_waits count")
		}
		if w, h := tr.CountValue("pool.load_waits"), tr.CountValue("pool.hits"); w > h {
			t.Errorf("%d load waits among %d hits: every wait is a hit", w, h)
		}
		hits += tr.CountValue("pool.hits")
		misses += tr.CountValue("pool.misses")
		evictions += tr.CountValue("pool.evictions")
		waits += tr.CountValue("pool.load_waits")
		pins += tr.CountValue("pool.pins")
	}
	for _, c := range []struct {
		name        string
		got, before uint64
		traced      int64
	}{
		{"hits", after.Hits, before.Hits, hits},
		{"misses", after.Misses, before.Misses, misses},
		{"evictions", after.Evictions, before.Evictions, evictions},
		{"load waits", after.LoadWaits, before.LoadWaits, waits},
		{"pins", after.Hits + after.Misses, before.Hits + before.Misses, pins},
	} {
		if want := int64(c.got - c.before); c.traced != want {
			t.Errorf("traces report %d %s, pool counter moved %d", c.traced, c.name, want)
		}
	}
	if evictions == 0 {
		t.Error("no query evicted a page: the 32-frame pool proves nothing")
	}
}

// TestExtractTraceCursorCounts: the trace names what the extraction's row
// cursors did — rows read and pool pins taken — and the sticky pins show
// in the numbers: the cursors read more rows than they pinned pages, and
// every cursor pin is one of the query's pins. A query without row reads
// (whole-graph analysis sweeps) reports zero cursor rows.
func TestExtractTraceCursorCounts(t *testing.T) {
	eng := tracedDiskEngine(t)
	sources := twoHopSources(t)
	tr := obs.NewTrace("cursor-req")
	res, err := eng.ExtractTraced(context.Background(), tr, sources, extract.Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatalf("sources %v expanded no key path; the fixture proves nothing", sources)
	}
	rows, pins := tr.CountValue("pool.cursor.rows"), tr.CountValue("pool.cursor.pins")
	if rows == 0 || pins == 0 {
		t.Fatalf("paged extraction reported cursor rows=%d pins=%d", rows, pins)
	}
	if pins > tr.CountValue("pool.pins") {
		t.Errorf("cursor pins %d exceed the query's pool pins %d", pins, tr.CountValue("pool.pins"))
	}
	// A row read one-shot pins at least the page it starts on, so without
	// sticky pins a query pins at least one page per row; every row a
	// cursor serves from the page it already holds is a pin saved. How many
	// rows share a page depends on how dense each level's frontier is (the
	// key-path DP relaxes only the nodes whose score improved, a few per
	// page here), so what holds on any fixture is fewer pins than rows.
	if pins >= rows {
		t.Errorf("cursors pinned %d pages for %d rows — sticky pins not holding", pins, rows)
	}

	tr = obs.NewTrace("sweep-req")
	if _, err := eng.AnalyzeGraphTraced(context.Background(), tr, analysis.PageRankOptions{MaxIter: 3}, 5); err != nil {
		t.Fatal(err)
	}
	if rows := tr.CountValue("pool.cursor.rows"); rows != 0 {
		t.Errorf("sweep-only query reported %d cursor rows", rows)
	}
}

// TestAnalyzeGraphTracedStages: the whole-graph analysis path records its
// stage breakdown and I/O accounting too — its sweeps' file reads and
// pages, and no pool pin — and a debug trace carries ReadMemStats deltas.
func TestAnalyzeGraphTracedStages(t *testing.T) {
	eng := tracedDiskEngine(t)
	tr := obs.NewTrace("analyze-req")
	tr.SetDebug(true)
	if _, err := eng.AnalyzeGraphTraced(context.Background(), tr, analysis.PageRankOptions{}, 5); err != nil {
		t.Fatal(err)
	}
	names := stageNames(tr)
	for _, want := range []string{"open", "labels", "report", "pagerank", "rank"} {
		if !names[want] {
			t.Errorf("trace missing stage %q (have %v)", want, names)
		}
	}
	if tr.CountValue("sweep.reads") == 0 || tr.CountValue("sweep.pages") < tr.CountValue("sweep.reads") {
		t.Errorf("paged analysis recorded %d sweep reads of %d pages", tr.CountValue("sweep.reads"), tr.CountValue("sweep.pages"))
	}
	if pins := tr.CountValue("pool.pins"); pins != 0 {
		t.Errorf("sweep-only analysis pinned %d pages", pins)
	}
	if tr.CountValue("mem.mallocs") == 0 {
		t.Error("debug trace recorded zero mallocs")
	}
}

// TestTracedErrorCarriesRequestID: a failing traced query tags its error
// with the trace's request ID (the PR 6 correlation satellite), without
// disturbing errors.Is classification.
func TestTracedErrorCarriesRequestID(t *testing.T) {
	eng := tracedDiskEngine(t)
	tr := obs.NewTrace("fail-req")
	_, err := eng.ExtractTraced(context.Background(), tr, []graph.NodeID{-1}, extract.Options{})
	if err == nil {
		t.Fatal("out-of-range source extracted")
	}
	if got := obs.RequestIDOf(err); got != "fail-req" {
		t.Errorf("error id = %q, want fail-req (err: %v)", got, err)
	}
	// Untraced queries stay untagged.
	_, err = eng.Extract([]graph.NodeID{-1}, extract.Options{})
	if obs.RequestIDOf(err) != "" {
		t.Errorf("untraced error carries id: %v", err)
	}
	// Classification survives tagging: a v1-style failure path still
	// matches via errors.Is. (Use ErrPagedIO's wrapping through a fault by
	// checking the tag is transparent to Is on a known sentinel.)
	if !errors.Is(obs.TagRequest(ErrPagedIO, "x"), ErrPagedIO) {
		t.Error("tagging hides the sentinel from errors.Is")
	}
}

// sweepCounter counts the whole-graph passes a solve makes.
type sweepCounter struct {
	*graph.CSR
	sweeps int64
}

func (c *sweepCounter) SweepEdges(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool) error {
	c.sweeps++
	return c.CSR.SweepEdges(lo, hi, fn)
}

// TestExtractFusedWorkCounts pins the work a multi-source extraction does
// on a paged engine, in counts that repeat exactly. The RWR stage sweeps
// the page run once per power iteration for all sources together, so its
// file reads are those of the slower source's solve alone — the max, not
// the sum, of the per-source iteration counts — and the key-path stage reads a
// frontier row once for every source that needs it, so the cursor rows of a
// two-source extraction stay strictly below those of the two one-source
// extractions added up.
func TestExtractFusedWorkCounts(t *testing.T) {
	eng := tracedDiskEngine(t)
	csr := graph.ToCSR(dblp.SmallFixture().Graph)
	iterations := func(s graph.NodeID) int64 {
		c := &sweepCounter{CSR: csr}
		if _, err := extract.RWRSet(c, []graph.NodeID{s}, extract.RWROptions{}); err != nil {
			t.Fatal(err)
		}
		return c.sweeps
	}
	// Two sources whose walks converge at different iterations.
	a, b := graph.NodeID(1), graph.NodeID(2)
	for iterations(b) == iterations(a) {
		if b++; int(b) == csr.N() {
			t.Fatal("every source converges at the same iteration; the fixture proves nothing")
		}
	}
	itA, itB := iterations(a), iterations(b)

	// sweepReads is what the RWR stage cost the file: the window reads of
	// its sweeps, which pin nothing.
	work := func(sources ...graph.NodeID) (sweepReads, cursorRows int64) {
		tr := obs.NewTrace("work-req")
		if _, err := eng.ExtractTraced(context.Background(), tr, sources, extract.Options{Budget: 12}); err != nil {
			t.Fatal(err)
		}
		if pins := tr.CountValue("pool.pins"); pins != tr.CountValue("pool.cursor.pins") {
			t.Fatalf("%d of the extraction's %d pins were not a row cursor's", pins-tr.CountValue("pool.cursor.pins"), pins)
		}
		return tr.CountValue("sweep.reads"), tr.CountValue("pool.cursor.rows")
	}
	work(a, b) // warm the offset and weighted-degree tables, read once per store
	readsA, rowsA := work(a)
	readsB, rowsB := work(b)
	readsAB, rowsAB := work(a, b)

	perSweep := readsA / itA
	if perSweep == 0 || readsA != itA*perSweep || readsB != itB*perSweep {
		t.Fatalf("sweep reads %d and %d are not %d and %d iterations of one per-sweep cost", readsA, readsB, itA, itB)
	}
	if want := max(itA, itB) * perSweep; readsAB != want {
		t.Errorf("two-source extraction: %d sweep reads = %d sweeps, want max(%d, %d) = %d sweeps (the sum would be %d)",
			readsAB, readsAB/perSweep, itA, itB, want/perSweep, itA+itB)
	}
	if rowsAB == 0 || rowsAB >= rowsA+rowsB {
		t.Errorf("two-source extraction read %d cursor rows, want fewer than the one-source extractions' %d + %d", rowsAB, rowsA, rowsB)
	}
}
