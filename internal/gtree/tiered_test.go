package gtree

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
)

// csrCost is the resident size of want decoded: 4·(n+1) + 12·halfEdges.
func csrCost(want *graph.CSR) int64 {
	return 4*int64(want.N()+1) + tierEdgeBytes*int64(want.HalfEdges())
}

// openTiered saves g and opens it with a tier budget set, returning the
// store and its base paged CSR. Nothing is promoted yet.
func openTiered(t *testing.T, g *graph.Graph, budget int64) (*Store, *PagedCSR) {
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
	return s, base
}

// checkTieredMatches requires the tiered view's full sweep and an
// ascending cursor walk to read o's rows bit for bit.
func checkTieredMatches(t *testing.T, tc *TieredCSR, o *graphtest.Oracle) {
	t.Helper()
	if err := errors.Join(o.CheckSweep(tc, 0, graph.NodeID(o.N())), o.CheckCursor(tc, graphtest.VisitOrders(o.N(), 1)["ascending"])); err != nil {
		t.Fatal(err)
	}
}

// TestTieredMatchesPagedAndMemory: at a budget of exactly the decoded
// CSR's cost, one Promote publishes the whole graph; a view opened after
// it reads memory, bit-identical to the source, and takes no pool pin.
func TestTieredMatchesPagedAndMemory(t *testing.T) {
	g := hubGraph(600, 2500, 3, 21)
	want := graphtest.NewOracle(g)
	cost := csrCost(graph.ToCSR(g))
	s, base := openTiered(t, g, cost)
	cold := base.Tiered()
	if cold.resident() {
		t.Fatal("view opened before any promotion reads memory")
	}
	if n := cold.Promote(); n != 1 {
		t.Fatalf("Promote at budget = cost published %d", n)
	}
	if ti := s.TierInfo(); ti.Fragments != 1 || ti.Bytes != cost || ti.Bytes > ti.Budget || ti.Promotions != 1 {
		t.Fatalf("tier after promotion: %+v, want the whole CSR (%d bytes)", ti, cost)
	}
	if cold.Promote() != 0 {
		t.Fatal("second Promote republished a resident CSR")
	}
	s.ResetPoolStats()
	tiered := base.Tiered()
	if !tiered.resident() {
		t.Fatal("view opened after promotion pages")
	}
	checkTieredMatches(t, tiered, want)
	if gets := poolGets(s); gets != 0 {
		t.Fatalf("warm tiered sweeps and cursor took %d pool pins, want 0", gets)
	}
	if ti := s.TierInfo(); ti.Hits != 1 || ti.Misses != 1 {
		t.Fatalf("tier counted %d memory and %d paged views, want 1 of each", ti.Hits, ti.Misses)
	}
	// The paged view stays bit-identical too.
	checkTieredMatches(t, cold, want)
	if err := want.CheckSweep(base, 0, graph.NodeID(base.N())); err != nil {
		t.Fatal(err)
	}
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredBudgetBound: a cut below the cost, or to 0, demotes a
// resident CSR at once, after which Promote is a no-op, while a view that
// picked the CSR before the cut keeps reading it. (Below the cost nothing
// is promoted at all: TestBackends' row "tiered/below-budget".)
func TestTieredBudgetBound(t *testing.T) {
	g := hubGraph(600, 2500, 3, 24)
	want := graphtest.NewOracle(g)
	cost := csrCost(graph.ToCSR(g))
	s, base := openTiered(t, g, 0)
	for _, cut := range []int64{cost - 1, 0} {
		s.SetTierBudget(cost)
		if base.Tiered().Promote() != 1 {
			t.Fatal("Promote at budget = cost published nothing")
		}
		held := base.Tiered()
		before := s.TierInfo()
		s.SetTierBudget(cut)
		if after := s.TierInfo(); after.Fragments != 0 || after.Bytes != 0 || after.Demotions != before.Demotions+1 {
			t.Fatalf("budget cut to %d: %+v -> %+v, want one demotion and nothing resident", cut, before, after)
		}
		if base.Tiered().Promote() != 0 {
			t.Fatalf("Promote published after a cut to %d", cut)
		}
		// A view that picked the CSR before the cut keeps reading it.
		checkTieredMatches(t, held, want)
	}
	checkTieredMatches(t, base.Tiered(), want)
}

// TestTieredPromotionRacesSweep runs promotions and demotions concurrently
// with views opening and running full sweeps and cursor walks: each view
// picks its tier once, when it opens, so every pass must stay
// bit-identical. Run with -race.
func TestTieredPromotionRacesSweep(t *testing.T) {
	g := hubGraph(600, 2500, 3, 23)
	want := graphtest.NewOracle(g)
	cost := csrCost(graph.ToCSR(g))
	s, base := openTiered(t, g, cost)
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
			base.Tiered().Promote()
			s.SetTierBudget(0)
			s.SetTierBudget(cost)
		}
	}()
	for pass := 0; pass < 8; pass++ {
		checkTieredMatches(t, base.Tiered(), want)
	}
	close(stop)
	wg.Wait()
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredPromotionFaultNoTornFragment corrupts the file underneath a
// live store, then promotes: the decode fault must latch exactly once, on
// the promoter's base view, and nothing may be published — while a query
// view open across the failed promotion stays clean.
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
	inflight, err := s.QueryView(context.Background())
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

	if n := base.Tiered().Promote(); n != 0 {
		t.Fatalf("promotion over a corrupt file published %d", n)
	}
	if n := base.faultCount(); n != 1 || base.Err() == nil {
		t.Fatalf("promotion decode latched %d faults on the base view, want exactly 1", n)
	}
	if qc := inflight.Counts(); qc.Faults != 0 || inflight.Err() != nil {
		t.Fatalf("promotion fault reached a query view: %+v, %v", qc, inflight.Err())
	}
	if ti := s.TierInfo(); ti.Fragments != 0 || ti.Promotions != 0 {
		t.Fatalf("torn CSR resident after faulted promotion: %+v", ti)
	}
}

// TestTieredPromotionRejectsOutOfRangeID: an Adjncy id outside [0,n)
// behind a valid checksum passes every page check, so the decode itself
// must refuse it — a resident CSR is read through the bare in-memory
// cursor, which would index with it unchecked. Promote publishes nothing.
func TestTieredPromotionRejectsOutOfRangeID(t *testing.T) {
	const pageSize = 256
	g := hubGraph(400, 1500, 2, 27)
	path := buildAndSave(t, g, pageSize)
	probe, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	adjFirst, n := int(probe.csrPages[1]), probe.graphNodes
	probe.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Adjncy[7] := n+5, resealed so only the decode's id check can catch it.
	binary.LittleEndian.PutUint32(raw[adjFirst*pageSize+7*4:], uint32(n+5))
	resealPage(raw, pageSize, adjFirst)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTierBudget(1 << 30)
	base, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Tiered().Promote(); got != 0 {
		t.Fatalf("Promote published a CSR holding neighbour id %d (n=%d)", n+5, n)
	}
	if ti := s.TierInfo(); ti.Fragments != 0 || ti.Bytes != 0 || ti.Promotions != 0 {
		t.Fatalf("out-of-range id left a resident tier: %+v", ti)
	}
	if base.Err() == nil || base.Tiered().resident() {
		t.Fatalf("decode did not latch the bad id (err %v)", base.Err())
	}
}
