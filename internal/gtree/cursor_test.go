package gtree

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// csrRows copies every row of c, the expected rows of a cursor walk.
func csrRows(c *graph.CSR) (ids [][]graph.NodeID, ws [][]float64) {
	ids, ws = make([][]graph.NodeID, c.N()), make([][]float64, c.N())
	for u := range ids {
		ids[u], ws[u] = c.Neighbors(graph.NodeID(u))
	}
	return ids, ws
}

// visitOrders returns the ascending, descending and a seeded random order
// over [0,n).
func visitOrders(n int, seed int64) map[string][]graph.NodeID {
	asc, desc := make([]graph.NodeID, n), make([]graph.NodeID, n)
	for i := range asc {
		asc[i] = graph.NodeID(i)
		desc[i] = graph.NodeID(n - 1 - i)
	}
	random := append([]graph.NodeID(nil), asc...)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	return map[string][]graph.NodeID{"ascending": asc, "descending": desc, "random": random}
}

// checkCursorMatches walks one cursor over order, alternating full and
// ids-only reads on one reused buffer pair, and requires every row to
// equal the expected rows bit for bit.
func checkCursorMatches(t *testing.T, name string, adj graph.Adjacency, order []graph.NodeID, ids [][]graph.NodeID, ws [][]float64) {
	t.Helper()
	cur := adj.Cursor()
	defer cur.Close()
	var nbrs []graph.NodeID
	var w []float64
	for i, u := range order {
		full := i%3 != 0
		if full {
			nbrs, w = cur.Neighbors(u, nbrs[:0], w[:0])
		} else {
			nbrs = cur.NeighborIDs(u, nbrs[:0])
		}
		if len(nbrs) != len(ids[u]) || (full && len(w) != len(ws[u])) {
			t.Fatalf("%s node %d: cursor read %d ids, want %d", name, u, len(nbrs), len(ids[u]))
		}
		for j := range nbrs {
			if nbrs[j] != ids[u][j] {
				t.Fatalf("%s node %d id %d: %d want %d", name, u, j, nbrs[j], ids[u][j])
			}
			if full && math.Float64bits(w[j]) != math.Float64bits(ws[u][j]) {
				t.Fatalf("%s node %d weight %d: %g want %g", name, u, j, w[j], ws[u][j])
			}
		}
	}
}

// TestCursorPromotionRace: a query picks its tier once, when its view
// opens. A view opened before promotion keeps paging and one opened after
// it aliases the resident CSR's Adjncy, both bit-identical; then views
// open and walk cursors while another goroutine promotes and demotes. Run
// with -race.
func TestCursorPromotionRace(t *testing.T) {
	g := hubGraph(600, 2500, 3, 43)
	want := graph.ToCSR(g)
	cost := csrCost(want)
	s, base := openTiered(t, g, cost)
	ids, ws := csrRows(want)
	before, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.Tiered().Promote() != 1 {
		t.Fatal("Promote at budget = cost published nothing")
	}
	after, err := s.QueryView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b, a := before.Counts(), after.Counts(); b.Resident || !a.Resident {
		t.Fatalf("view opened before promotion resident=%v, after resident=%v; want paged, then memory", b.Resident, a.Resident)
	}
	mem := base.sh.tier.csr.Load()
	bc, ac := before.Adj.Cursor(), after.Adj.Cursor()
	for u := graph.NodeID(0); int(u) < want.N(); u++ {
		bn, bw := bc.Neighbors(u, nil, nil)
		an, aw := ac.Neighbors(u, nil, nil)
		requireRow(t, "opened before promotion", want, u, bn, bw, true)
		requireRow(t, "opened after promotion", want, u, an, aw, true)
		if len(an) > 0 && &an[0] != &mem.Adjncy[mem.Xadj[u]] {
			t.Fatalf("row %d of a view opened after promotion does not alias the resident CSR", u)
		}
	}
	bc.Close()
	ac.Close()
	if b, a := before.Counts(), after.Counts(); b.CursorRows != int64(want.N()) || a.Pool.Hits+a.Pool.Misses != 0 {
		t.Fatalf("paged view read %d cursor rows (want %d); resident view took %d pins (want 0)",
			b.CursorRows, want.N(), a.Pool.Hits+a.Pool.Misses)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.SetTierBudget(0)
			s.SetTierBudget(cost)
			base.Tiered().Promote()
		}
	}()
	for pass := 0; pass < 6; pass++ {
		for name, order := range visitOrders(want.N(), int64(pass)) {
			qv, err := s.QueryView(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkCursorMatches(t, "tiered-race/"+name, qv.Adj, order, ids, ws)
			if err := qv.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
	if pins := s.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned after the race", pins)
	}
}

// resealPage recomputes the trailing CRC-32C of page id in raw.
func resealPage(raw []byte, pageSize, id int) {
	page := raw[id*pageSize : (id+1)*pageSize]
	sum := crc32.Checksum(page[:pageSize-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(page[pageSize-4:], sum)
}

// TestCursorFaults: an out-of-range node and a checksum flip on an
// Adjncy page each make the cursor read append nothing — whatever the
// buffers already held stays — and latch exactly one fault on the query
// view that read; the cursor keeps working for clean rows and closes with
// no frame pinned, and no fault leaks onto the store's base view. (A
// corrupt offset table fails every row; TestOffsetTableFault covers it.)
func TestCursorFaults(t *testing.T) {
	const pageSize = 256
	g := hubGraph(400, 1500, 2, 47)
	want := graph.ToCSR(g)
	path := buildAndSave(t, g, pageSize)

	// The victim sits on an Adjncy page whose checksum flips, past every
	// page of node 2's row, the clean row read after the faults.
	perPage := (pageSize - 4) / 4
	badSum := graph.NodeID(-1)
	for u := want.N() - 1; u > 2 && badSum < 0; u-- {
		if want.Degree(graph.NodeID(u)) > 0 && int(want.Xadj[u])/perPage > int(want.Xadj[3]-1)/perPage {
			badSum = graph.NodeID(u)
		}
	}
	if badSum < 0 || want.Degree(2) == 0 {
		t.Fatal("fixture has no suitable victim rows")
	}

	probe, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	adjFirst := int(probe.csrPages[1])
	probe.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the checksum of the Adjncy page holding badSum's first id.
	apage := adjFirst + int(want.Xadj[badSum])/perPage
	raw[(apage+1)*pageSize-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paged", "tiered"} {
		if name == "tiered" {
			s.SetTierBudget(1) // tiered views, never anything resident
		}
		qv, err := s.QueryView(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if qc := qv.Counts(); qc.Tiered != (name == "tiered") || qc.Resident {
			t.Fatalf("%s: opened %+v", name, qc)
		}
		cur := qv.Adj.Cursor()
		// Sentinel content the failed reads must leave untouched.
		nbrs, ws := []graph.NodeID{-7, -8}, []float64{1.5}
		for _, c := range []struct {
			what string
			u    graph.NodeID
		}{
			{"node below range", -1},
			{"node past range", graph.NodeID(paged.N())},
			{"checksum flip", badSum},
		} {
			for _, idsOnly := range []bool{false, true} {
				before := qv.Counts().Faults
				if idsOnly {
					nbrs = cur.NeighborIDs(c.u, nbrs)
				} else {
					nbrs, ws = cur.Neighbors(c.u, nbrs, ws)
				}
				if len(nbrs) != 2 || nbrs[0] != -7 || nbrs[1] != -8 || len(ws) != 1 || ws[0] != 1.5 {
					t.Fatalf("%s %s (idsOnly=%v): failed read changed the buffers: %v %v", name, c.what, idsOnly, nbrs, ws)
				}
				if d := qv.Counts().Faults - before; d != 1 {
					t.Fatalf("%s %s (idsOnly=%v): view latched %d faults, want exactly 1", name, c.what, idsOnly, d)
				}
			}
		}
		// The cursor survives its faults: a clean row still reads right.
		before := qv.Counts().Faults
		got, gw := cur.Neighbors(2, nil, nil)
		wn, ww := want.Neighbors(2)
		if len(got) != len(wn) || len(gw) != len(ww) {
			t.Fatalf("%s: clean row after faults: %d ids, want %d", name, len(got), len(wn))
		}
		if d := qv.Counts().Faults - before; d != 0 {
			t.Fatalf("%s: clean row after faults latched %d more", name, d)
		}
		cur.Close()
		cur.Close() // idempotent
		if pins := s.PinnedFrames(); pins != 0 {
			t.Fatalf("%s: %d frames pinned after Close", name, pins)
		}
	}
	if err := paged.Err(); err != nil {
		t.Fatalf("query views' faults leaked onto the base view: %v", err)
	}
}

// TestCursorWarmReadAllocFree: once its buffers have grown, a cursor read
// allocates nothing — neither the sticky same-page read nor the read that
// moves every pin to another (resident) page.
func TestCursorWarmReadAllocFree(t *testing.T) {
	g := hubGraph(600, 2500, 2, 53)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	far := graph.NodeID(paged.N() * 3 / 5) // other Xadj, Adjncy and EdgeW pages than node 1's
	cur := paged.Cursor()
	defer cur.Close()
	var nbrs []graph.NodeID
	var ws []float64
	for _, u := range []graph.NodeID{0, 1, far} { // node 0 is a hub: grows the buffers
		nbrs, ws = cur.Neighbors(u, nbrs[:0], ws[:0])
	}
	if n := testing.AllocsPerRun(200, func() {
		nbrs, ws = cur.Neighbors(1, nbrs[:0], ws[:0])
	}); n != 0 {
		t.Errorf("sticky cursor read allocated %.1f times per run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		nbrs, ws = cur.Neighbors(1, nbrs[:0], ws[:0])
		nbrs = cur.NeighborIDs(far, nbrs[:0])
	}); n != 0 {
		t.Errorf("pin-moving cursor reads allocated %.1f times per run", n)
	}
	if err := paged.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorLivenessTinyPools: eight goroutines each hold a cursor — up
// to three sticky pins apiece — over pools of one, two and three frames.
// No cursor ever waits for a frame while holding one (it drops its pins
// first), so the walks serialize instead of deadlocking: all finish
// inside the deadline with correct rows and nothing left pinned. Run with
// -race.
func TestCursorLivenessTinyPools(t *testing.T) {
	g := hubGraph(160, 500, 1, 59)
	want := graph.ToCSR(g)
	path := buildAndSave(t, g, 256)
	for _, capacity := range []int{1, 2, 3} {
		s, err := OpenFile(path, capacity)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.PagedCSR()
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Half the cursors pin through query views, as engine
				// queries do; half through the shared pool.
				var view graph.Adjacency = base
				if w%2 == 0 {
					qv, err := s.QueryView(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					view = qv.Adj
					defer func() {
						if err := qv.Err(); err != nil {
							t.Errorf("pool=%d worker %d: %v", capacity, w, err)
						}
					}()
				}
				order := visitOrders(view.N(), int64(w))[[]string{"ascending", "descending", "random"}[w%3]]
				cur := view.Cursor()
				defer cur.Close()
				var nbrs []graph.NodeID
				var ws []float64
				for _, u := range order {
					if w%4 < 2 {
						nbrs, ws = cur.Neighbors(u, nbrs[:0], ws[:0])
					} else {
						nbrs = cur.NeighborIDs(u, nbrs[:0])
					}
					wn, _ := want.Neighbors(u)
					if len(nbrs) != len(wn) {
						t.Errorf("pool=%d worker %d node %d: %d ids, want %d", capacity, w, u, len(nbrs), len(wn))
						return
					}
				}
			}(w)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("pool=%d: %d concurrent cursors did not finish — a cursor waited while pinned", capacity, workers)
		}
		if err := base.Err(); err != nil {
			t.Fatalf("pool=%d: %v", capacity, err)
		}
		if pins := s.PinnedFrames(); pins != 0 {
			t.Fatalf("pool=%d: %d frames still pinned", capacity, pins)
		}
		s.Close()
	}
}

// FuzzCursorRows drives a row cursor over randomly shaped graphs, page
// sizes, visiting orders and byte corruptions: every read either
// reproduces the in-memory row exactly or appends nothing AND latches a
// fault on the view — never a partial or silently wrong row — and the
// closed cursor leaves nothing pinned.
func FuzzCursorRows(f *testing.F) {
	f.Add(int64(1), uint16(50), uint16(200), uint8(0), uint8(0), uint32(0))
	f.Add(int64(2), uint16(300), uint16(1200), uint8(1), uint8(1), uint32(0))
	f.Add(int64(3), uint16(80), uint16(0), uint8(0), uint8(2), uint32(0))      // zero-degree everywhere
	f.Add(int64(4), uint16(120), uint16(800), uint8(2), uint8(0), uint32(700)) // corrupted byte
	f.Add(int64(5), uint16(40), uint16(5000), uint8(0), uint8(2), uint32(0))   // dense rows straddling pages
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16, pageSel, orderSel uint8, corruptAt uint32) {
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
		order := visitOrders(c.N(), seed)[[]string{"ascending", "descending", "random"}[int(orderSel)%3]]
		cur := c.Cursor()
		var nbrs []graph.NodeID
		var ws []float64
		for i, u := range order {
			before := c.faultCount()
			if i%2 == 0 {
				nbrs, ws = cur.Neighbors(u, nbrs[:0], ws[:0])
			} else {
				nbrs, ws = cur.NeighborIDs(u, nbrs[:0]), ws[:0]
			}
			if c.faultCount() != before {
				if len(nbrs) != 0 || len(ws) != 0 {
					t.Fatalf("node %d: faulted read appended %d/%d entries", u, len(nbrs), len(ws))
				}
				continue
			}
			wn, ww := want.Neighbors(u)
			if len(nbrs) != len(wn) || (i%2 == 0 && len(ws) != len(ww)) {
				t.Fatalf("node %d: %d/%d entries, want %d, and no fault latched", u, len(nbrs), len(ws), len(wn))
			}
			for j := range nbrs {
				if nbrs[j] != wn[j] || (i%2 == 0 && math.Float64bits(ws[j]) != math.Float64bits(ww[j])) {
					t.Fatalf("node %d entry %d differs, and no fault latched", u, j)
				}
			}
		}
		cur.Close()
		if pins := s.PinnedFrames(); pins != 0 {
			t.Fatalf("%d frames pinned after Close", pins)
		}
	})
}
