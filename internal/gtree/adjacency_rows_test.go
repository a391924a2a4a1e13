package gtree

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// rowBackend is one row of the TestAdjacencyRows table: an Adjacency over
// the table's graph, the store behind it (nil for the in-memory CSR), and
// a check of the backend's own premise (that a tier really holds what the
// row says it does).
type rowBackend struct {
	name    string
	adj     graph.Adjacency
	store   *Store
	premise func(t *testing.T)
}

// rowBackends opens every backend of the table over g: the CSR; paged at
// page sizes 256 and 1024 times pools 4 and 4096; tiered at budget 0, at a
// budget holding the whole graph, and one byte below it; and a query view
// carrying a live (never cancelled) context.
func rowBackends(t *testing.T, g *graph.Graph) []rowBackend {
	t.Helper()
	backends := []rowBackend{{name: "csr", adj: graph.ToCSR(g)}}
	open := func(pageSize, pool int) (*Store, *PagedCSR) {
		t.Helper()
		s, err := OpenFile(buildAndSave(t, g, pageSize), pool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		c, err := s.PagedCSR()
		if err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	for _, pageSize := range []int{256, 1024} {
		for _, pool := range []int{4, 4096} {
			s, c := open(pageSize, pool)
			backends = append(backends, rowBackend{name: fmt.Sprintf("paged/page=%d/pool=%d", pageSize, pool), adj: c, store: s})
		}
	}

	// Budget 0: the tiered view reads the paged view it was opened on.
	s, c := open(256, 4096)
	s.SetTierBudget(0)
	off := c.Tiered()
	backends = append(backends, rowBackend{name: "tiered/budget=0", adj: off, store: s, premise: func(t *testing.T) {
		if off.resident() {
			t.Fatal("budget 0 view reads memory")
		}
	}})
	// Whole graph: a budget with room for all of it, and one promotion.
	s, c = open(256, 4096)
	s.SetTierBudget(1 << 30)
	c.Tiered().Promote()
	whole, wholeStore := c.Tiered(), s
	backends = append(backends, rowBackend{name: "tiered/whole", adj: whole, store: s, premise: func(t *testing.T) {
		ti := wholeStore.TierInfo()
		if ti == nil || ti.Fragments == 0 || ti.Bytes < tierEdgeBytes*int64(whole.HalfEdges()) || ti.Bytes > ti.Budget {
			t.Fatalf("whole-graph tier does not hold every half-edge within budget: %+v", ti)
		}
		if !whole.resident() || ti.Hits == 0 {
			t.Fatalf("view opened after promotion does not read memory: %+v", ti)
		}
	}})
	// Below budget: one byte short of the decoded CSR, so nothing is
	// promoted and every row read pages.
	s, c = open(256, 4096)
	s.SetTierBudget(tierCost(c) - 1)
	below, belowStore := c.Tiered(), s
	promoted := below.Promote()
	backends = append(backends, rowBackend{name: "tiered/below-budget", adj: below, store: s, premise: func(t *testing.T) {
		if ti := belowStore.TierInfo(); promoted != 0 || ti == nil || ti.Fragments != 0 || below.resident() {
			t.Fatalf("below-budget tier promoted %d: %+v", promoted, ti)
		}
	}})
	// A query view: its own counted pool view and a live (never cancelled)
	// context.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, _ = open(512, 16)
	qv, err := s.QueryView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	backends = append(backends, rowBackend{name: "queryView", adj: qv.Adj, store: s, premise: func(t *testing.T) {
		if err := qv.Err(); err != nil {
			t.Fatalf("clean reads latched %v on the query view", err)
		}
	}})
	return backends
}

// requireRow fails unless (ids, ws) is want's row u; weights=false skips
// the weights (ids-only reads).
func requireRow(t *testing.T, tag string, want *graph.CSR, u graph.NodeID, ids []graph.NodeID, ws []float64, weights bool) {
	t.Helper()
	wn, ww := want.Neighbors(u)
	if len(ids) != len(wn) || (weights && len(ws) != len(ww)) {
		t.Fatalf("%s node %d: %d ids / %d weights, want %d", tag, u, len(ids), len(ws), len(wn))
	}
	for i := range wn {
		if ids[i] != wn[i] || (weights && math.Float64bits(ws[i]) != math.Float64bits(ww[i])) {
			t.Fatalf("%s node %d entry %d: %d/%v, want %d/%v", tag, u, i, ids[i], ws, wn[i], ww[i])
		}
	}
}

// checkSweeps runs SweepEdges over [lo,hi), stopping after stopAfter rows
// when positive, and requires the rows emitted in ascending order,
// zero-degree rows included, each equal to want's.
func checkSweeps(t *testing.T, tag string, adj graph.Adjacency, want *graph.CSR, lo, hi graph.NodeID, stopAfter int) {
	t.Helper()
	wantRows := int(hi - lo)
	if stopAfter > 0 && stopAfter < wantRows {
		wantRows = stopAfter
	}
	next, rows := lo, 0
	err := adj.SweepEdges(lo, hi, func(u graph.NodeID, ids []graph.NodeID, ws []float64) bool {
		if u != next {
			t.Fatalf("%s [%d,%d): emitted %d, expected %d", tag, lo, hi, u, next)
		}
		next++
		rows++
		requireRow(t, tag, want, u, ids, ws, true)
		return stopAfter <= 0 || rows < stopAfter
	})
	if err != nil {
		t.Fatalf("%s [%d,%d): %v", tag, lo, hi, err)
	}
	if rows != wantRows {
		t.Fatalf("%s [%d,%d): %d rows emitted, want %d", tag, lo, hi, rows, wantRows)
	}
}

// TestAdjacencyRows is the row oracle of every Adjacency backend: whatever
// the backend and whichever of the two read paths — sweeps over the full
// range, over sub-ranges and with an early stop; a cursor in ascending,
// descending and random order with full and ids-only reads interleaved
// — every row equals the source graph's row in ToCSR order:
// ids, weights and order. Geometry and weighted degrees must match too,
// and a backend with a store is left holding no frame and no fault.
func TestAdjacencyRows(t *testing.T) {
	g := hubGraph(600, 2500, 3, 61) // ~7k half-edges: several sweep windows; hubs straddle many pages
	want := graph.ToCSR(g)
	n := graph.NodeID(want.N())
	zero := 0
	for u := graph.NodeID(0); u < n; u++ {
		if want.Degree(u) == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("fixture has no zero-degree rows")
	}
	wdeg := want.WeightedDegrees()
	for _, b := range rowBackends(t, g) {
		adj := b.adj
		if adj.N() != want.N() || adj.HalfEdges() != want.HalfEdges() {
			t.Fatalf("%s: geometry %d/%d, want %d/%d", b.name, adj.N(), adj.HalfEdges(), want.N(), want.HalfEdges())
		}
		cur := adj.Cursor()
		for u := graph.NodeID(0); u < n; u++ {
			if got := len(cur.NeighborIDs(u)); got != want.Degree(u) {
				t.Fatalf("%s: row %d has %d ids, want %d", b.name, u, got, want.Degree(u))
			}
		}
		cur.Close()
		for u, w := range adj.WeightedDegrees() {
			if math.Float64bits(w) != math.Float64bits(wdeg[u]) {
				t.Fatalf("%s: WeightedDegrees[%d] = %v, want %v", b.name, u, w, wdeg[u])
			}
		}

		checkSweeps(t, b.name+"/full", adj, want, 0, n, 0)
		for _, r := range [][2]graph.NodeID{{1, n / 2}, {n / 3, n - 1}, {n - n/5 - 3, n}} {
			checkSweeps(t, b.name+"/sub", adj, want, r[0], r[1], 0)
		}
		checkSweeps(t, b.name+"/stop", adj, want, 5, n, 17)

		for order, us := range visitOrders(int(n), 61) {
			cur := adj.Cursor()
			var nbrs []graph.NodeID
			var ws []float64
			for i, u := range us {
				full := i%3 != 0
				if full {
					nbrs, ws = cur.Neighbors(u)
				} else {
					nbrs = cur.NeighborIDs(u)
				}
				requireRow(t, b.name+"/cursor/"+order, want, u, nbrs, ws, full)
			}
			cur.Close()
		}

		if b.premise != nil {
			b.premise(t)
		}
		if b.store != nil {
			if pins := b.store.PinnedFrames(); pins != 0 {
				t.Fatalf("%s: %d frames pinned after the reads", b.name, pins)
			}
			csr, _ := b.store.PagedCSR()
			if err := csr.Err(); err != nil {
				t.Fatalf("%s: clean reads latched %v", b.name, err)
			}
		}
	}
}
