package gtree

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/storage"
)

// requireRow fails t unless (ids, ws) is o's row u; weights false skips
// the weights (an ids-only read).
func requireRow(t *testing.T, o *graphtest.Oracle, u graph.NodeID, ids []graph.NodeID, ws []float64, weights bool) {
	t.Helper()
	if err := o.CheckRow(u, ids, ws, weights); err != nil {
		t.Fatal(err)
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
	o := graphtest.NewOracle(g)
	cost := csrCost(want)
	s, base := openTiered(t, g, cost)
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
		bn, bw := bc.Neighbors(u)
		an, aw := ac.Neighbors(u)
		requireRow(t, o, u, bn, bw, true)
		requireRow(t, o, u, an, aw, true)
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
		for name, order := range graphtest.VisitOrders(want.N(), int64(pass)) {
			qv, err := s.QueryView(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(o.CheckCursor(qv.Adj, order), qv.Err()); err != nil {
				t.Fatalf("%s: %v", name, err)
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
// Adjncy page each make the cursor read return an empty row and latch
// exactly one fault on the query view that read; the cursor keeps working for clean rows and closes with
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
				// A full read first leaves a row in the cursor's own
				// buffers; the failed read must not hand it out.
				cur.Neighbors(2)
				var nbrs []graph.NodeID
				var ws []float64
				if idsOnly {
					nbrs = cur.NeighborIDs(c.u)
				} else {
					nbrs, ws = cur.Neighbors(c.u)
				}
				if len(nbrs) != 0 || len(ws) != 0 {
					t.Fatalf("%s %s (idsOnly=%v): failed read returned a row: %v %v", name, c.what, idsOnly, nbrs, ws)
				}
				if d := qv.Counts().Faults - before; d != 1 {
					t.Fatalf("%s %s (idsOnly=%v): view latched %d faults, want exactly 1", name, c.what, idsOnly, d)
				}
			}
		}
		// The cursor survives its faults: a clean row still reads right.
		before := qv.Counts().Faults
		got, gw := cur.Neighbors(2)
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
	for _, u := range []graph.NodeID{0, 1, far} { // node 0 is a hub: grows the buffers
		cur.Neighbors(u)
	}
	if n := testing.AllocsPerRun(200, func() {
		cur.Neighbors(1)
	}); n != 0 {
		t.Errorf("sticky cursor read allocated %.1f times per run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		cur.Neighbors(1)
		cur.NeighborIDs(far)
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
	want := graphtest.NewOracle(g)
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
				order := graphtest.VisitOrders(view.N(), int64(w))[[]string{"ascending", "descending", "random"}[w%3]]
				if err := want.CheckCursor(view, order); err != nil {
					t.Errorf("pool=%d worker %d: %v", capacity, w, err)
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
// reproduces the in-memory row exactly or returns an empty row AND latches
// a fault on the view — never a partial or silently wrong row — and the
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
		if err := Save(tree, graph.ToCSR(g), g.Directed(), g.Label, path, pageSize); err != nil {
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
		order := graphtest.VisitOrders(c.N(), seed)[[]string{"ascending", "descending", "random"}[int(orderSel)%3]]
		cur := c.Cursor()
		var nbrs []graph.NodeID
		var ws []float64
		for i, u := range order {
			before := c.faultCount()
			if i%2 == 0 {
				nbrs, ws = cur.Neighbors(u)
			} else {
				nbrs, ws = cur.NeighborIDs(u), nil
			}
			if c.faultCount() != before {
				if len(nbrs) != 0 || len(ws) != 0 {
					t.Fatalf("node %d: faulted read returned %d/%d entries", u, len(nbrs), len(ws))
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

// TestCursorFrameRows: NeighborIDs hands out a row that lies on one page
// as a cap-clamped view of the pinned frame, so two such rows of one page
// share its memory, while Neighbors reads come from the cursor's own
// buffers. Rows that straddle pages — hub rows spanning several among them
// — read correctly whichever way a walk runs, and a walk over every node
// pins each page exactly once in either direction: a straddling row is
// read from the end whose page the cursor already holds.
func TestCursorFrameRows(t *testing.T) {
	const pageSize = 256
	g := hubGraph(600, 2500, 2, 61)
	want, o := graph.ToCSR(g), graphtest.NewOracle(g)
	path := buildAndSave(t, g, pageSize)
	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	payload := pageSize - 4
	idsPer := int32(storage.RunPerPage(4, payload))
	a := graph.NodeID(-1)
	for u := 0; u+2 < len(want.Xadj) && a < 0; u++ {
		lo, mid, hi := want.Xadj[u], want.Xadj[u+1], want.Xadj[u+2]
		if lo < mid && mid < hi && lo/idsPer == (hi-1)/idsPer {
			a = graph.NodeID(u)
		}
	}
	if a < 0 {
		t.Fatal("fixture has no two non-empty rows on one page")
	}
	b := a + 1

	cur := paged.Cursor()
	ra := cur.NeighborIDs(a)
	requireRow(t, o, a, ra, nil, false)
	pa, capA := uintptr(unsafe.Pointer(unsafe.SliceData(ra))), cap(ra)
	rb := cur.NeighborIDs(b)
	requireRow(t, o, b, rb, nil, false)
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(rb)))
	if capA != len(ra) || cap(rb) != len(rb) {
		t.Fatalf("frame rows not cap-clamped: len/cap %d/%d and %d/%d", len(ra), capA, len(rb), cap(rb))
	}
	if nativeLE && pb-pa != uintptr(4*(want.Xadj[b]-want.Xadj[a])) {
		t.Fatalf("rows %d and %d of one page do not share its frame (%#x, %#x)", a, b, pa, pb)
	}
	nb, wb := cur.Neighbors(b)
	requireRow(t, o, b, nb, wb, true)
	if uintptr(unsafe.Pointer(unsafe.SliceData(nb))) == pb {
		t.Fatal("Neighbors handed out a view of the frame")
	}
	cur.Close()

	adjncyPages := storage.RunPages(want.HalfEdges(), 4, payload)
	edgewPages := storage.RunPages(want.HalfEdges(), 8, payload)
	straddles := 0
	for u := 0; u < want.N(); u++ {
		if lo, hi := want.Xadj[u], want.Xadj[u+1]; hi > lo && lo/idsPer != (hi-1)/idsPer {
			straddles++
		}
	}
	if straddles < 10 {
		t.Fatalf("fixture has only %d rows straddling pages", straddles)
	}
	for _, dir := range []string{"ascending", "descending"} {
		order := graphtest.VisitOrders(want.N(), 0)[dir]
		for _, full := range []bool{false, true} {
			_, pins0 := paged.CursorCounts()
			cur := paged.Cursor()
			for _, u := range order {
				if full {
					ids, ws := cur.Neighbors(u)
					requireRow(t, o, u, ids, ws, true)
				} else {
					ids := cur.NeighborIDs(u)
					requireRow(t, o, u, ids, nil, false)
					if len(ids) != cap(ids) {
						t.Fatalf("%s: row %d len %d cap %d", dir, u, len(ids), cap(ids))
					}
				}
			}
			cur.Close()
			_, pins1 := paged.CursorCounts()
			wantPins := adjncyPages
			if full {
				wantPins += edgewPages
			}
			if got := int(pins1 - pins0); got != wantPins {
				t.Fatalf("%s walk (full=%v) took %d pins, want one per page: %d", dir, full, got, wantPins)
			}
		}
	}
	if err := paged.Err(); err != nil {
		t.Fatal(err)
	}
}
