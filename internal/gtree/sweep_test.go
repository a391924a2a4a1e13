package gtree

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// hubGraph builds a random graph with a few high-degree hubs (so edge
// lists straddle many small pages and the decode windows of a sweep) and
// a contiguous run of isolated nodes (zero-degree emission).
func hubGraph(n, m, hubs int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithNodes(n, false)
	// The last n/5 nodes stay isolated.
	conn := n - n/5
	if conn < 2 {
		conn = n
	}
	for h := 0; h < hubs && h < conn; h++ {
		hub := graph.NodeID(h * 7 % conn)
		for i := 0; i < conn/2; i++ {
			g.AddEdge(hub, graph.NodeID(rng.Intn(conn)), rng.Float64()*10+0.1)
		}
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(conn)), graph.NodeID(rng.Intn(conn)), rng.Float64()*10+0.1)
	}
	g.Dedup()
	return g
}

// checkSweepMatches sweeps [0,n) on the paged CSR and requires every
// emitted row to be bit-identical to the in-memory ground truth, with
// every node emitted exactly once in order.
func checkSweepMatches(t *testing.T, c *PagedCSR, want *graph.CSR) {
	t.Helper()
	next := 0
	if err := c.SweepEdges(0, graph.NodeID(c.N()), func(u graph.NodeID, nbrs []graph.NodeID, ws []float64) bool {
		if int(u) != next {
			t.Fatalf("emitted %d, expected %d", u, next)
		}
		next++
		wn, ww := want.Neighbors(u)
		if len(nbrs) != len(wn) || len(ws) != len(ww) {
			t.Fatalf("node %d: %d/%d entries, want %d", u, len(nbrs), len(ws), len(wn))
		}
		for i := range wn {
			if nbrs[i] != wn[i] || math.Float64bits(ws[i]) != math.Float64bits(ww[i]) {
				t.Fatalf("node %d entry %d: %d/%g want %d/%g", u, i, nbrs[i], ws[i], wn[i], ww[i])
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if next != c.N() {
		t.Fatalf("sweep emitted %d of %d nodes", next, c.N())
	}
}

// TestPagedSweepMatchesNeighbors: the blocked page-run sweep reproduces
// the node-centric ground truth bit for bit — hub lists straddling many
// 256-byte pages (and the 4096-half-edge decode window), zero-degree
// tail runs, tiny and big pools.
func TestPagedSweepMatchesNeighbors(t *testing.T) {
	g := hubGraph(600, 2500, 3, 11) // ~10k half-edges: several decode windows
	want := graph.ToCSR(g)
	path := buildAndSave(t, g, 256)
	for _, pool := range []int{4, 64, 4096} {
		s, err := OpenFile(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.PagedCSR()
		if err != nil {
			t.Fatal(err)
		}
		checkSweepMatches(t, c, want)
		if err := c.Err(); err != nil {
			t.Fatalf("pool=%d: latched error after clean sweep: %v", pool, err)
		}
		s.Close()
	}
}

func poolGets(s *Store) uint64 {
	st := s.PoolStats()
	return st.Hits + st.Misses
}

// TestPagedSweepPinsPerIteration pins the perf claim behind the sweep:
// one full-adjacency pass costs the pool O(filePages) pins, not the O(n)
// of reading row by row — asserted via the hit/miss counters, not
// eyeballed from benchmarks.
func TestPagedSweepPinsPerIteration(t *testing.T) {
	g := hubGraph(3000, 5000, 2, 13)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	n, half := c.N(), c.HalfEdges()
	const payload = 252 // 256-byte pages minus CRC
	csrPages := storage.RunPages(n+1, 4, payload) +
		storage.RunPages(half, 4, payload) +
		storage.RunPages(half, 8, payload)
	windows := half/sweepEdgeChunk + 1

	s.ResetPoolStats()
	if err := c.SweepEdges(0, graph.NodeID(n), func(graph.NodeID, []graph.NodeID, []float64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	sweepGets := poolGets(s)
	// Each CSR page is pinned once per window that touches it; only the
	// pages at window and node-chunk boundaries are touched twice.
	bound := uint64(csrPages + 4*windows + 2*(n/sweepNodeChunk+1))
	if sweepGets > bound {
		t.Fatalf("sweep pinned %d pages, want <= %d (csrPages=%d)", sweepGets, bound, csrPages)
	}
	if sweepGets >= uint64(n) {
		t.Fatalf("sweep pinned %d pages for %d nodes — not O(filePages)", sweepGets, n)
	}

	// Contrast: one-shot row reads pay per node, not per page.
	s.ResetPoolStats()
	var nbrs []graph.NodeID
	var ws []float64
	for u := 0; u < n; u++ {
		cur := c.Cursor()
		nbrs, ws = cur.Neighbors(graph.NodeID(u), nbrs[:0], ws[:0])
		cur.Close()
	}
	if nodeGets := poolGets(s); nodeGets < uint64(n) {
		t.Fatalf("node-centric pass pinned %d pages for %d nodes — contrast premise broken", nodeGets, n)
	} else if sweepGets*3 > nodeGets {
		t.Fatalf("sweep (%d pins) not clearly cheaper than node-centric (%d pins)", sweepGets, nodeGets)
	}
}

// TestPagedSweepEarlyStopAndBounds: fn returning false ends the sweep
// cleanly; malformed ranges error and latch one fault before any
// emission.
func TestPagedSweepEarlyStopAndBounds(t *testing.T) {
	g := hubGraph(200, 600, 1, 14)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := c.SweepEdges(0, graph.NodeID(c.N()), func(graph.NodeID, []graph.NodeID, []float64) bool {
		seen++
		return seen < 5
	}); err != nil || seen != 5 {
		t.Fatalf("early stop: err=%v seen=%d", err, seen)
	}
	for _, r := range [][2]graph.NodeID{{-1, 5}, {5, 4}, {0, graph.NodeID(c.N()) + 1}} {
		before := c.faultCount()
		called := false
		err := c.SweepEdges(r[0], r[1], func(graph.NodeID, []graph.NodeID, []float64) bool {
			called = true
			return true
		})
		if err == nil || called {
			t.Fatalf("sweep [%d,%d): err=%v called=%v", r[0], r[1], err, called)
		}
		if d := c.faultCount() - before; d != 1 {
			t.Fatalf("sweep [%d,%d) latched %d faults, want 1", r[0], r[1], d)
		}
	}
}

// TestPagedSweepFaultMidSweep corrupts the file underneath a live store:
// the sweep must return the fault AND latch exactly one on the query view
// that swept — never a partial silent result — while a view that read
// nothing stays clean.
func TestPagedSweepFaultMidSweep(t *testing.T) {
	g := hubGraph(500, 2000, 2, 15)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 4) // tiny pool: corrupted pages get re-read
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	// Clean sweep first.
	if err := c.SweepEdges(0, graph.NodeID(c.N()), func(graph.NodeID, []graph.NodeID, []float64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	// Flip the checksum byte of every data page.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 256
	for off := 2*pageSize - 1; off < len(raw); off += pageSize {
		raw[off] ^= 0x01
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	swept, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idle, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	err = swept.Adj.SweepEdges(0, graph.NodeID(c.N()), func(graph.NodeID, []graph.NodeID, []float64) bool {
		emitted++
		return true
	})
	if err == nil {
		t.Fatalf("sweep over corrupted file succeeded after %d emissions", emitted)
	}
	if qc := swept.Counts(); qc.Faults != 1 || swept.Err() == nil {
		t.Fatalf("mid-sweep fault: view latched %d faults (err %v), want exactly 1", qc.Faults, swept.Err())
	}
	if emitted >= c.N() {
		t.Fatal("sweep claimed to emit every node despite the fault")
	}
	if idle.Counts().Faults != 0 || idle.Err() != nil || c.Err() != nil {
		t.Fatalf("fault leaked off the view that swept: idle %v, base %v", idle.Err(), c.Err())
	}
}

// TestQueryViewOwnsFaultsSharesWdeg: query views share one weighted-degree
// cache, but each owns its fault latch and counters, which see only the
// query's own reads; views turn tiered once the store has a tier budget.
func TestQueryViewOwnsFaultsSharesWdeg(t *testing.T) {
	g := hubGraph(300, 900, 1, 17)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := view.Adj.(*PagedCSR); !ok {
		t.Fatalf("untiered store opened a %T view", view.Adj)
	}
	// wdeg built through the view is served from the shared cache.
	w1 := view.Adj.WeightedDegrees()
	w2 := base.WeightedDegrees()
	if &w1[0] != &w2[0] {
		t.Fatal("query view built a second weighted-degree table")
	}
	// A fault through the view latches on the view alone; the first fault
	// is the one kept.
	cur := view.Adj.Cursor()
	cur.NeighborIDs(graph.NodeID(-1), nil)
	first := view.Err()
	cur.NeighborIDs(0, nil)
	cur.Close()
	if first == nil || view.Err() != first {
		t.Fatalf("view latched %v, then %v; want its first fault kept", first, view.Err())
	}
	if base.Err() != nil || other.Err() != nil || other.Counts().Faults != 0 {
		t.Fatalf("view fault leaked: base %v, other view %v", base.Err(), other.Err())
	}
	// The view counted its own sweep and cursor pins, and nothing else.
	base.Cursor().Close()
	qc := view.Counts()
	if qc.Faults != 1 || qc.Pool.Hits+qc.Pool.Misses == 0 || qc.CursorRows != 2 || qc.Tiered {
		t.Fatalf("query counts %+v, want one fault, some pins and 2 cursor rows, untiered", qc)
	}
	if st := s.PoolStats(); st.Hits+st.Misses != qc.Pool.Hits+qc.Pool.Misses {
		t.Fatalf("pool counted %d pins, the only query %d", st.Hits+st.Misses, qc.Pool.Hits+qc.Pool.Misses)
	}

	s.SetTierBudget(1 << 20)
	tv, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if qc := tv.Counts(); qc.Resident || !qc.Tiered {
		t.Fatalf("store with a tier budget and nothing resident opened %+v", qc)
	}
	if _, ok := tv.Adj.(*TieredCSR); !ok {
		t.Fatalf("store with a tier budget opened a %T view", tv.Adj)
	}
}

// FuzzSweepEdges drives the blocked sweep over randomly shaped graphs,
// page sizes and byte corruptions: a sweep either reproduces the
// in-memory ground truth exactly or fails AND latches the fault on the
// view swept — never a partial silent result.
func FuzzSweepEdges(f *testing.F) {
	f.Add(int64(1), uint16(50), uint16(200), uint8(0), uint32(0))
	f.Add(int64(2), uint16(300), uint16(1200), uint8(1), uint32(0))
	f.Add(int64(3), uint16(80), uint16(0), uint8(0), uint32(0))      // zero-degree everywhere
	f.Add(int64(4), uint16(120), uint16(800), uint8(2), uint32(700)) // corrupted byte
	f.Add(int64(5), uint16(40), uint16(5000), uint8(0), uint32(0))   // dense: multi-window
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16, pageSel uint8, corruptAt uint32) {
		nodes := int(n%2000) + 2
		edges := int(m % 8000)
		pageSize := []int{256, 512, 1024}[int(pageSel)%3]
		g := hubGraph(nodes, edges, int(seed%3), seed)
		want := graph.ToCSR(g)
		tree, err := Build(g, BuildOptions{K: 3, Levels: 2})
		if err != nil {
			t.Skip()
		}
		path := filepath.Join(t.TempDir(), "fz.gtree")
		if err := Save(tree, g, path, pageSize); err != nil {
			t.Skip()
		}
		if corruptAt != 0 {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt one byte past the superblock (corrupting the
			// superblock just fails the open, which is not the sweep path).
			off := int(corruptAt)%(len(raw)-pageSize) + pageSize
			raw[off] ^= 0xA5
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenFile(path, 8)
		if err != nil {
			return // corruption reached resident metadata; fine
		}
		defer s.Close()
		c, err := s.PagedCSR()
		if err != nil {
			return
		}
		before := c.faultCount()
		next := 0
		clean := true
		err = c.SweepEdges(0, graph.NodeID(c.N()), func(u graph.NodeID, nbrs []graph.NodeID, ws []float64) bool {
			if int(u) != next {
				t.Fatalf("emitted %d, expected %d", u, next)
			}
			next++
			wn, ww := want.Neighbors(u)
			if len(nbrs) != len(wn) || len(ws) != len(ww) {
				clean = false
				t.Fatalf("node %d: %d/%d entries, want %d", u, len(nbrs), len(ws), len(wn))
			}
			for i := range wn {
				if nbrs[i] != wn[i] || math.Float64bits(ws[i]) != math.Float64bits(ww[i]) {
					t.Fatalf("node %d entry %d differs", u, i)
				}
			}
			return true
		})
		if err != nil {
			// Failed sweeps must latch on the view too.
			if c.faultCount() == before || c.Err() == nil {
				t.Fatal("sweep error not latched on the view")
			}
			return
		}
		if next != c.N() || !clean {
			t.Fatalf("clean sweep emitted %d of %d nodes", next, c.N())
		}
	})
}
