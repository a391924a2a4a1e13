package gtree

import (
	"os"
	"sync"
	"testing"

	"repro/internal/graph"
)

// csrCost is the resident size of want decoded: 4·(n+1) + 12·halfEdges.
func csrCost(want *graph.CSR) int64 {
	return 4*int64(want.N()+1) + tierEdgeBytes*int64(want.HalfEdges())
}

// openTiered saves g and opens it with a tier budget set, returning the
// store and a tiered view over its paged CSR. Nothing is promoted yet.
func openTiered(t *testing.T, g *graph.Graph, budget int64) (*Store, *TieredCSR) {
	t.Helper()
	s, err := OpenFile(buildAndSave(t, g, 256), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetTierBudget(budget)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	return s, base.Tiered()
}

// checkTieredMatches requires the tiered view's sweeps and cursor reads to
// be bit-identical to the in-memory ground truth.
func checkTieredMatches(t *testing.T, tc *TieredCSR, want *graph.CSR) {
	t.Helper()
	checkSweeps(t, "tiered", tc, want, 0, graph.NodeID(want.N()), 0)
	ids, ws := csrRows(want)
	checkCursorMatches(t, "tiered", tc, visitOrders(want.N(), 1)["ascending"], ids, ws)
}

// TestTieredMatchesPagedAndMemory: at a budget of exactly the decoded
// CSR's cost, one Promote publishes the whole graph; every tiered read is
// then bit-identical to memory, served from memory, and takes no pool pin.
func TestTieredMatchesPagedAndMemory(t *testing.T) {
	g := hubGraph(600, 2500, 3, 21)
	want := graph.ToCSR(g)
	cost := csrCost(want)
	s, tiered := openTiered(t, g, cost)
	if n := tiered.Promote(); n != 1 {
		t.Fatalf("Promote at budget = cost published %d", n)
	}
	if ti := s.TierInfo(); ti.Fragments != 1 || ti.Bytes != cost || ti.Bytes > ti.Budget || ti.Promotions != 1 {
		t.Fatalf("tier after promotion: %+v, want the whole CSR (%d bytes)", ti, cost)
	}
	if tiered.Promote() != 0 {
		t.Fatal("second Promote republished a resident CSR")
	}
	s.ResetPoolStats()
	checkTieredMatches(t, tiered, want)
	if gets := poolGets(s); gets != 0 {
		t.Fatalf("warm tiered sweeps and cursor took %d pool pins, want 0", gets)
	}
	if hits, misses := tiered.QueryCounts(); hits == 0 || misses != 0 {
		t.Fatalf("resident tier served %d hits, %d misses; want only hits", hits, misses)
	}
	// The paged base stays bit-identical too.
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatches(t, base, want)
	if err := tiered.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredBudgetBound: one byte below the cost nothing is promoted and
// every read pages, bit-identically; a cut below the cost, or to 0, demotes
// a resident CSR at once, after which Promote is a no-op.
func TestTieredBudgetBound(t *testing.T) {
	g := hubGraph(600, 2500, 3, 24)
	want := graph.ToCSR(g)
	cost := csrCost(want)
	s, tiered := openTiered(t, g, cost-1)
	if n := tiered.Promote(); n != 0 {
		t.Fatalf("Promote below the cost published %d", n)
	}
	if ti := s.TierInfo(); ti.Fragments != 0 || ti.Bytes != 0 {
		t.Fatalf("tier below the cost: %+v", ti)
	}
	checkTieredMatches(t, tiered, want)
	if hits, misses := tiered.QueryCounts(); hits != 0 || misses == 0 {
		t.Fatalf("below-budget tier served %d hits, %d misses; want only misses", hits, misses)
	}
	for _, cut := range []int64{cost - 1, 0} {
		s.SetTierBudget(cost)
		if tiered.Promote() != 1 {
			t.Fatal("Promote at budget = cost published nothing")
		}
		before := s.TierInfo()
		s.SetTierBudget(cut)
		if after := s.TierInfo(); after.Fragments != 0 || after.Bytes != 0 || after.Demotions != before.Demotions+1 {
			t.Fatalf("budget cut to %d: %+v -> %+v, want one demotion and nothing resident", cut, before, after)
		}
		if tiered.Promote() != 0 {
			t.Fatalf("Promote published after a cut to %d", cut)
		}
	}
	checkTieredMatches(t, tiered, want)
}

// TestTieredPromotionRacesSweep runs promotions and demotions concurrently
// with full tiered sweeps and cursor walks: each picks its backend once,
// at its start, so every pass must stay bit-identical. Run with -race.
func TestTieredPromotionRacesSweep(t *testing.T) {
	g := hubGraph(600, 2500, 3, 23)
	want := graph.ToCSR(g)
	cost := csrCost(want)
	s, tiered := openTiered(t, g, cost)
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
			tiered.Promote()
			s.SetTierBudget(0)
			s.SetTierBudget(cost)
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

// TestTieredPromotionFaultNoTornFragment corrupts the file underneath a
// live store, then promotes: the decode fault must latch on the shared
// epoch protocol and nothing may be published — reads keep failing closed
// through the paged path instead of serving a half-decoded CSR.
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
		t.Fatalf("promotion over a corrupt file published %d", n)
	}
	if tiered.ErrSince(epoch) == nil {
		t.Fatal("promotion decode fault not recorded on the epoch protocol")
	}
	if ti := s.TierInfo(); ti.Fragments != 0 || ti.Promotions != 0 {
		t.Fatalf("torn CSR resident after faulted promotion: %+v", ti)
	}
}
