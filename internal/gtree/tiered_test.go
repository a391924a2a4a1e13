package gtree

import (
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/graph"
)

// warmRows drives one-shot row reads through c so the buffer pool's heat
// counters mark the touched page buckets hot — the promotion signal.
func warmRows(c *PagedCSR, rows []graph.NodeID, passes int) {
	var nbrs []graph.NodeID
	var ws []float64
	for p := 0; p < passes; p++ {
		for _, u := range rows {
			cur := c.Cursor()
			nbrs, ws = cur.Neighbors(u, nbrs[:0], ws[:0])
			cur.Close()
		}
	}
}

// openTiered saves g, opens it with a tier budget set, warms the hub rows
// and runs one promotion pass, requiring it to promote at least one
// fragment.
func openTiered(t *testing.T, g *graph.Graph, budget int64) (*Store, *TieredCSR) {
	t.Helper()
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetTierBudget(budget)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	warmRows(base, []graph.NodeID{0, 7, 14}, 8)
	tiered := base.Tiered()
	if tiered.Promote() == 0 {
		t.Fatal("promotion pass over hot hub rows promoted nothing")
	}
	ti := s.TierInfo()
	if ti == nil || ti.Fragments == 0 || ti.Bytes == 0 {
		t.Fatalf("tier info after promotion: %+v", ti)
	}
	if ti.Bytes > budget {
		t.Fatalf("resident fragment bytes %d exceed budget %d", ti.Bytes, budget)
	}
	return s, tiered
}

// checkTieredMatches requires the tiered view's sweep, cursor and Degree
// reads to be bit-identical to the in-memory ground truth.
func checkTieredMatches(t *testing.T, tc *TieredCSR, want *graph.CSR) {
	t.Helper()
	next := 0
	if err := tc.SweepEdges(0, graph.NodeID(tc.N()), func(u graph.NodeID, nbrs []graph.NodeID, ws []float64) bool {
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
	if next != tc.N() {
		t.Fatalf("sweep emitted %d of %d nodes", next, tc.N())
	}
	for u := 0; u < want.N(); u++ {
		if id := graph.NodeID(u); tc.Degree(id) != want.Degree(id) {
			t.Fatalf("node %d: Degree %d want %d", u, tc.Degree(id), want.Degree(id))
		}
	}
	// Cursor reads reuse one buffer pair across hit and miss rows — the
	// aliasing hazard the copy-on-hit contract exists for.
	ids, ws := csrRows(want)
	checkCursorMatches(t, "tiered", tc, visitOrders(want.N(), 1)["ascending"], ids, ws)
}

// TestTieredMatchesPagedAndMemory: with hot hub rows promoted into
// fragments, every tiered read path must reproduce the in-memory ground
// truth bit for bit, and fragment hits must actually be served (the tiered
// view is not allowed to quietly fall through to paged for everything).
func TestTieredMatchesPagedAndMemory(t *testing.T) {
	g := hubGraph(600, 2500, 3, 21)
	want := graph.ToCSR(g)
	s, tiered := openTiered(t, g, 1<<20)
	checkTieredMatches(t, tiered, want)
	if hits, _ := tiered.QueryCounts(); hits == 0 {
		t.Fatal("no rows served from fragments despite resident hot ranges")
	}
	ti := s.TierInfo()
	if ti.Hits == 0 {
		t.Fatalf("session tier counters saw no fragment hits: %+v", ti)
	}
	// The paged base stays bit-identical too (fragments are views, not a
	// second source of truth).
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatches(t, base, want)
	if err := tiered.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredPromotionRacesSweep runs promotion passes (with ongoing heat
// churn) concurrently with full tiered sweeps: every sweep must stay
// bit-identical — the immutable-snapshot publish means a mid-sweep
// promotion is invisible to the pass that already started. Run with -race.
func TestTieredPromotionRacesSweep(t *testing.T) {
	g := hubGraph(600, 2500, 3, 23)
	want := graph.ToCSR(g)
	s, tiered := openTiered(t, g, 1<<18)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := []graph.NodeID{0, 7, 14, 100, 200, 300}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			warmRows(base, rows[i%len(rows):i%len(rows)+1], 2)
			tiered.Promote()
		}
	}()
	for pass := 0; pass < 8; pass++ {
		checkTieredMatches(t, tiered, want)
	}
	close(stop)
	wg.Wait()
	if err := tiered.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredBudgetBound: resident fragment bytes never exceed the budget,
// across repeated promotion passes with shifting heat; shrinking the
// budget to 0 demotes everything immediately and disables routing.
func TestTieredBudgetBound(t *testing.T) {
	g := hubGraph(600, 2500, 3, 24)
	const budget = 16 << 10 // far smaller than the CSR: promotion must select
	s, tiered := openTiered(t, g, budget)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		warmRows(base, []graph.NodeID{graph.NodeID(50 * round), graph.NodeID(50*round + 25)}, 6)
		tiered.Promote()
		if ti := s.TierInfo(); ti.Bytes > budget {
			t.Fatalf("round %d: resident %d bytes exceed budget %d", round, ti.Bytes, budget)
		}
	}
	before := s.TierInfo()
	if before.Fragments == 0 {
		t.Fatal("no fragments resident before the budget cut")
	}
	s.SetTierBudget(0)
	after := s.TierInfo()
	if after.Fragments != 0 || after.Bytes != 0 {
		t.Fatalf("budget 0 left fragments resident: %+v", after)
	}
	if after.Demotions < before.Demotions+uint64(before.Fragments) {
		t.Fatalf("demotions %d do not account for the %d evicted fragments", after.Demotions, before.Fragments)
	}
	// With tiering off the view is a plain delegating wrapper; Promote is a
	// no-op.
	if tiered.Promote() != 0 {
		t.Fatal("Promote promoted with budget 0")
	}
}

// TestTieredPromotionFaultNoTornFragment corrupts the file underneath a
// live store, then promotes: the decode fault must latch on the shared
// epoch protocol and the torn fragment must never be published — reads
// keep failing closed through the paged path instead of silently serving
// garbage from a half-decoded fragment.
func TestTieredPromotionFaultNoTornFragment(t *testing.T) {
	g := hubGraph(500, 2000, 2, 25)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 4) // tiny pool: corrupted pages get re-read
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTierBudget(1 << 20)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	warmRows(base, []graph.NodeID{0, 7}, 8)

	// Flip the checksum byte of every data page under the live store.
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

	tiered := base.Tiered()
	epoch := tiered.Faults()
	if n := tiered.Promote(); n != 0 {
		t.Fatalf("promotion over a corrupt file published %d fragments", n)
	}
	if tiered.ErrSince(epoch) == nil {
		t.Fatal("promotion decode fault not recorded on the epoch protocol")
	}
	ti := s.TierInfo()
	if ti != nil && ti.Fragments != 0 {
		t.Fatalf("torn fragments resident after faulted promotion: %+v", ti)
	}
}
