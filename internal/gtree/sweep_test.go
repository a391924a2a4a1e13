package gtree

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
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

// TestPagedSweepMatchesNeighbors: the blocked page-run sweep reproduces
// the node-centric ground truth bit for bit — hub lists straddling many
// 256-byte pages (and the 4096-half-edge decode window), zero-degree
// tail runs, tiny and big pools.
func TestPagedSweepMatchesNeighbors(t *testing.T) {
	g := hubGraph(600, 2500, 3, 11) // ~10k half-edges: several decode windows
	want := graphtest.NewOracle(g)
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
		if err := want.CheckSweep(c, 0, graph.NodeID(c.N())); err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
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

// queryView opens a query view of s or fails the test.
func queryView(t *testing.T, s *Store) *QueryView {
	t.Helper()
	qv, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return qv
}

// sweepAll sweeps every node of adj, discarding the rows.
func sweepAll(adj graph.Adjacency) error {
	return adj.SweepEdges(0, graph.NodeID(adj.N()), func(graph.NodeID, []graph.NodeID, []float64) bool { return true })
}

// TestPagedSweepReadsPerIteration pins the perf claim behind the sweep:
// one full-adjacency pass reads O(filePages) pages in a few window reads
// and pins nothing, where reading row by row costs the pool O(n) pins —
// asserted via the view's and the pool's counters, not eyeballed from
// benchmarks.
func TestPagedSweepReadsPerIteration(t *testing.T) {
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
	edgePages := storage.RunPages(half, 4, payload) + storage.RunPages(half, 8, payload)
	windows := (half + sweepEdgeChunk - 1) / sweepEdgeChunk

	if _, err := c.offsets(); err != nil { // the table is read once per store
		t.Fatal(err)
	}
	qv := queryView(t, s)
	if err := sweepAll(qv.Adj); err != nil {
		t.Fatal(err)
	}
	qc := qv.Counts()
	// Each edge page is read once per window that touches it; only the
	// pages at window boundaries are read twice.
	if bound := int64(edgePages + 2*windows); qc.SweepPages > bound {
		t.Fatalf("sweep read %d pages, want <= %d (%d edge pages)", qc.SweepPages, bound, edgePages)
	}
	if qc.SweepReads > int64(2*windows) || qc.SweepPages >= int64(n) {
		t.Fatalf("sweep made %d reads of %d pages for %d nodes — not O(filePages)", qc.SweepReads, qc.SweepPages, n)
	}

	// Contrast: one-shot row reads pay the pool per node, not per page.
	s.ResetPoolStats()
	for u := 0; u < n; u++ {
		cur := c.Cursor()
		cur.Neighbors(graph.NodeID(u))
		cur.Close()
	}
	if nodeGets := poolGets(s); nodeGets < uint64(n) {
		t.Fatalf("node-centric pass pinned %d pages for %d nodes — contrast premise broken", nodeGets, n)
	} else if uint64(qc.SweepPages)*3 > nodeGets {
		t.Fatalf("sweep (%d pages) not clearly cheaper than node-centric (%d pins)", qc.SweepPages, nodeGets)
	}
}

// TestPagedSweepWorkCounts pins what a whole-graph sweep costs, in counts
// that repeat exactly: no pool pin at all, at most two file reads per
// sweepEdgeChunk half-edges (one per decoded run) plus the offset table,
// which only the store's first reader builds — a second query reads no
// Xadj page. The tier promoter's decode is charged to the store's base
// view, never to a query's.
func TestPagedSweepWorkCounts(t *testing.T) {
	g := hubGraph(3000, 20000, 2, 19)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	n, half := base.N(), base.HalfEdges()
	windows := (half + sweepEdgeChunk - 1) / sweepEdgeChunk
	if windows < 4 {
		t.Fatalf("fixture spans %d sweep windows; the bound proves nothing", windows)
	}
	xadjPages := int64(storage.RunPages(n+1, 4, 252))

	first, second := queryView(t, s), queryView(t, s)
	for _, qv := range []*QueryView{first, second} {
		if err := sweepAll(qv.Adj); err != nil {
			t.Fatal(err)
		}
	}
	a, b := first.Counts(), second.Counts()
	for name, qc := range map[string]QueryCounts{"first": a, "second": b} {
		if pins := qc.Pool.Hits + qc.Pool.Misses; pins != 0 {
			t.Errorf("%s query: a full sweep took %d pool pins, want 0", name, pins)
		}
		if bound := int64(2*windows + 2); qc.SweepReads > bound {
			t.Errorf("%s query: %d file reads per sweep, want <= %d", name, qc.SweepReads, bound)
		}
	}
	if st := s.PoolStats(); st.Hits+st.Misses != 0 {
		t.Errorf("sweeps pinned %d pages through the shared pool", st.Hits+st.Misses)
	}
	// No row is longer than a window, so every read but a run's last takes
	// exactly sweepEdgeChunk new half-edges: the count repeats exactly.
	if b.SweepReads != int64(2*windows) {
		t.Errorf("second query: %d file reads, want one per window per run (%d)", b.SweepReads, 2*windows)
	}
	if b.SweepReads != a.SweepReads-1 || b.SweepPages != a.SweepPages-xadjPages {
		t.Errorf("second query read %d windows of %d pages, first %d of %d: want exactly the offset table's one read of %d pages fewer",
			b.SweepReads, b.SweepPages, a.SweepReads, a.SweepPages, xadjPages)
	}

	s.SetTierBudget(1 << 30)
	before, _ := base.SweepCounts()
	if base.Tiered().Promote() != 1 {
		t.Fatal("promotion published nothing")
	}
	if after, _ := base.SweepCounts(); after == before || after-before > int64(2*windows) {
		t.Errorf("promoter's decode charged %d reads to the base view, want 1 to %d", after-before, 2*windows)
	}
	if a2, b2 := first.Counts(), second.Counts(); a2.SweepReads != a.SweepReads || b2.SweepReads != b.SweepReads {
		t.Error("promoter's decode was charged to a query view")
	}
}

// TestOffsetTableFault: the row-offset table is validated once and never
// cached after a fault. Offsets that are wrong behind a valid checksum
// latch one fault on the calling view alone and leave nothing cached, so
// the store reads clean once the file is repaired; readAttempts scripted
// faults on one window read latch exactly one fault; a single scripted
// fault heals.
func TestOffsetTableFault(t *testing.T) {
	const pageSize = 256
	g := hubGraph(400, 1500, 2, 29)
	want := graph.ToCSR(g)
	path := buildAndSave(t, g, pageSize)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	xadjFirst := int(probe.csrPages[0])
	probe.Close()

	t.Run("corrupt", func(t *testing.T) {
		// Xadj[30] := Xadj[31]+1 breaks monotonicity behind a valid
		// checksum.
		raw := append([]byte(nil), clean...)
		perPage := (pageSize - 4) / 4
		xpage := xadjFirst + 30/perPage
		binary.LittleEndian.PutUint32(raw[xpage*pageSize+(30%perPage)*4:], uint32(want.Xadj[31]+1))
		resealPage(raw, pageSize, xpage)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		base, err := s.PagedCSR()
		if err != nil {
			t.Fatal(err)
		}
		swept, read, idle := queryView(t, s), queryView(t, s), queryView(t, s)
		if err := sweepAll(swept.Adj); err == nil {
			t.Fatal("sweep over a non-monotone offset table succeeded")
		}
		cur := read.Adj.Cursor()
		nbrs := cur.NeighborIDs(5)
		cur.Close()
		if len(nbrs) != 0 {
			t.Fatalf("row read over a corrupt offset table returned %v", nbrs)
		}
		for name, qv := range map[string]*QueryView{"sweep": swept, "cursor": read} {
			if qc := qv.Counts(); qc.Faults != 1 || qv.Err() == nil || !strings.Contains(qv.Err().Error(), "corrupt CSR xadj") {
				t.Fatalf("%s view latched %d faults (%v), want exactly the offset table's", name, qc.Faults, qv.Err())
			}
		}
		if idle.Err() != nil || base.Err() != nil {
			t.Fatalf("offset-table fault leaked off the reading views: idle %v, base %v", idle.Err(), base.Err())
		}
		if base.sh.xadj != nil {
			t.Fatal("a table that failed validation was cached")
		}
		// Repair the file under the live store: nothing was cached, so the
		// next query builds the table from the file and reads clean.
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		healed := queryView(t, s)
		if err := sweepAll(healed.Adj); err != nil || healed.Err() != nil {
			t.Fatalf("sweep after repair: %v (view %v)", err, healed.Err())
		}
		if err := graphtest.NewOracle(g).CheckSweep(base, 0, graph.NodeID(base.N())); err != nil {
			t.Fatal(err)
		}
	})

	for _, warm := range []bool{false, true} {
		name := "table-read"
		if warm {
			name = "window-read" // the table is built: faults hit a sweep window
		}
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, clean, 0o644); err != nil {
				t.Fatal(err)
			}
			var inj *storage.FaultInjector
			s, err := OpenFileWrapped(path, 8, func(f storage.File) storage.File {
				inj = storage.NewFaultInjector(f, 1)
				return inj
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if warm {
				if err := sweepAll(queryView(t, s).Adj); err != nil {
					t.Fatal(err)
				}
			}
			inj.Script(storage.FaultErr, storage.FaultErr, storage.FaultErr, storage.FaultErr)
			r0 := inj.Stats().Reads
			failed := queryView(t, s)
			if err := sweepAll(failed.Adj); err == nil {
				t.Fatal("sweep through exhausted retries succeeded")
			}
			if qc := failed.Counts(); qc.Faults != 1 || qc.SweepReads != 1 {
				t.Fatalf("exhausted window: %d faults over %d window reads, want exactly 1 and 1", qc.Faults, qc.SweepReads)
			}
			if reads := inj.Stats().Reads - r0; reads != 4 {
				t.Fatalf("exhausted window reached the file %d times, want one ReadAt per attempt (4)", reads)
			}
			inj.Script(storage.FaultFlip)
			rs0 := s.RetryStats()
			healed := queryView(t, s)
			if err := sweepAll(healed.Adj); err != nil || healed.Counts().Faults != 0 {
				t.Fatalf("one transient fault did not heal: %v, %d faults", err, healed.Counts().Faults)
			}
			if rs := s.RetryStats(); rs.Healed != rs0.Healed+1 {
				t.Fatalf("retry stats %+v after %+v, want one healed read", rs, rs0)
			}
			if pins := s.PinnedFrames(); pins != 0 {
				t.Fatalf("%d frames pinned after the faulted sweeps", pins)
			}
		})
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
	cur.NeighborIDs(graph.NodeID(-1))
	first := view.Err()
	cur.NeighborIDs(0)
	cur.Close()
	if first == nil || view.Err() != first {
		t.Fatalf("view latched %v, then %v; want its first fault kept", first, view.Err())
	}
	if base.Err() != nil || other.Err() != nil || other.Counts().Faults != 0 {
		t.Fatalf("view fault leaked: base %v, other view %v", base.Err(), other.Err())
	}
	// The view counted its own sweep reads and cursor pins, and nothing
	// else: the weighted-degree build (and the offset table under it) read
	// the file through the view without pinning.
	base.Cursor().Close()
	qc := view.Counts()
	if qc.Faults != 1 || qc.Pool.Hits+qc.Pool.Misses == 0 || qc.CursorRows != 2 || qc.Tiered {
		t.Fatalf("query counts %+v, want one fault, some pins and 2 cursor rows, untiered", qc)
	}
	if qc.SweepReads == 0 || qc.Pool.Hits+qc.Pool.Misses != uint64(qc.CursorPins) {
		t.Fatalf("query counts %+v, want the sweep's file reads and only the cursor's pins", qc)
	}
	if oc := other.Counts(); oc.SweepReads != 0 || oc.Pool.Hits+oc.Pool.Misses != 0 {
		t.Fatalf("idle view counted reads %+v", oc)
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
