package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/storage"
)

// afterRWR returns opts with a stage hook that runs fn once, as the "rwr"
// stage ends: inside the solve, between the power iteration and the
// key-path rounds, with no row cursor open.
func afterRWR(opts extract.Options, fn func()) extract.Options {
	opts.StageHook = func(stage string, _ time.Time, _ time.Duration) {
		if stage == "rwr" {
			fn()
		}
	}
	return opts
}

// TestFaultLatchOtherViewSparesCleanQuery: a fault latched on another
// query's view while a paged extraction is mid-solve must not touch it —
// the extraction returns the memory engine's result bit for bit, not
// ErrPagedIO.
func TestFaultLatchOtherViewSparesCleanQuery(t *testing.T) {
	mem, disk, _ := buildMemAndDisk(t, 16)
	sources := []graph.NodeID{0, 2}
	opts := extract.Options{Budget: 12}
	want, err := mem.Extract(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	var faults uint64
	got, err := disk.Extract(sources, afterRWR(opts, func() {
		other, err := disk.Store().QueryView(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		cur := other.Adj.Cursor()
		cur.NeighborIDs(graph.NodeID(-1))
		cur.Close()
		faults = other.Counts().Faults
	}))
	if faults != 1 {
		t.Fatalf("the other view latched %d faults, want 1: the test proves nothing", faults)
	}
	if err != nil {
		t.Fatalf("clean extraction failed by another view's fault: %v", err)
	}
	equalResults(t, "paged", want, got)
}

// TestFaultLatchPromoteSparesInFlightQuery: a tier promotion whose decode
// faults while a paged extraction is mid-solve must not fail that
// extraction; and once the fault has cleared, the query's own promotion
// step loads the graph.
func TestFaultLatchPromoteSparesInFlightQuery(t *testing.T) {
	mem, disk, inj := chaosEngines(t, 8, 13)
	disk.SetTierBudget(1 << 30)
	base, err := disk.Store().PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.NodeID{0, 2}
	opts := extract.Options{Budget: 12}
	want, err := mem.Extract(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	promoted := -1
	got, err := disk.Extract(sources, afterRWR(opts, func() {
		// Four consecutive errors exhaust the retries of the decode's first
		// window read; nothing else reads the file meanwhile.
		inj.Script(storage.FaultErr, storage.FaultErr, storage.FaultErr, storage.FaultErr)
		promoted = base.Tiered().Promote()
	}))
	if promoted != 0 || disk.Store().RetryStats().Failed == 0 {
		t.Fatalf("promotion under injected faults published %d (retry stats %+v): the test proves nothing",
			promoted, disk.Store().RetryStats())
	}
	if err != nil {
		t.Fatalf("in-flight extraction failed by the promoter's fault: %v", err)
	}
	equalResults(t, "paged", want, got)
	if ti := disk.Store().TierInfo(); ti == nil || ti.Promotions != 1 || ti.Fragments != 1 {
		t.Fatalf("query's promotion step did not load the graph after the fault: %+v", ti)
	}
}

// TestTierBudgetFlipsUnderQueries: SetTierBudget is safe concurrently with
// queries. The budget flips between the decoded graph's cost and 0 —
// promoting and demoting it — while concurrent Extract and AnalyzeGraph
// calls run, and every result stays bit-identical to the memory engine's.
// Run with -race.
func TestTierBudgetFlipsUnderQueries(t *testing.T) {
	mem, tiered, _ := buildMemAndDisk(t, 64)
	pc, err := tiered.Store().PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	cost := 4*int64(pc.N()+1) + 12*int64(pc.HalfEdges())
	sources := []graph.NodeID{1, 4}
	opts := extract.Options{Budget: 10}
	wantEx, err := mem.Extract(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	prOpts := analysis.PageRankOptions{MaxIter: 20}
	wantRep, err := mem.AnalyzeGraph(prOpts, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Each flip publishes the graph and leaves it resident for a while, so
	// queries open on both tiers and both kinds of budget change land
	// mid-query.
	stop := make(chan struct{})
	flipped := make(chan int)
	go func() {
		flips := 0
		for {
			select {
			case <-stop:
				flipped <- flips
				return
			default:
			}
			tiered.SetTierBudget(cost)
			pc.Tiered().Promote()
			time.Sleep(2 * time.Millisecond)
			tiered.SetTierBudget(0)
			time.Sleep(time.Millisecond)
			flips++
		}
	}()
	// Extractions are compared once the workers are done: equalResults
	// stops the test, which only the test's own goroutine may do.
	const workers, rounds = 3, 3
	var extracted [workers][rounds]*extract.Result
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (w+i)%2 == 0 {
					got, err := tiered.Extract(sources, opts)
					if err != nil {
						t.Errorf("worker %d: Extract: %v", w, err)
						return
					}
					extracted[w][i] = got
					continue
				}
				rep, err := tiered.AnalyzeGraph(prOpts, 5)
				if err != nil {
					t.Errorf("worker %d: AnalyzeGraph: %v", w, err)
					return
				}
				if !reflect.DeepEqual(rep.AdjacencyReport, wantRep.AdjacencyReport) || !reflect.DeepEqual(rep.TopRanked, wantRep.TopRanked) {
					t.Errorf("worker %d: analysis diverged from memory under budget flips", w)
					return
				}
				for v := range wantRep.PageRank {
					if math.Float64bits(rep.PageRank[v]) != math.Float64bits(wantRep.PageRank[v]) {
						t.Errorf("worker %d: rank[%d] diverged under budget flips", w, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flips := <-flipped
	for w := range extracted {
		for _, got := range extracted[w] {
			if got != nil {
				equalResults(t, "tiered under budget flips", wantEx, got)
			}
		}
	}
	if flips == 0 {
		t.Fatal("the budget never flipped during the queries")
	}
	if ti := tiered.Store().TierInfo(); ti == nil || ti.Promotions == 0 || ti.Demotions == 0 {
		t.Fatalf("flips promoted or demoted nothing: %+v", ti)
	}
	if pins := tiered.Store().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned after the queries", pins)
	}
}
