package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

// TestWholeGraphQueriesReleasePartitions: every whole-graph query path on
// a disk engine pins pages through its own counted view of the pool and
// must release every pin on exit — success or failure — so a long session
// never leaks a pinned (unevictable) frame.
func TestWholeGraphQueriesReleasePartitions(t *testing.T) {
	_, disk, _ := buildMemAndDisk(t, 16)
	if _, err := disk.PageRank(analysis.PageRankOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Extract([]graph.NodeID{0, 1}, extract.Options{Budget: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 5); err != nil {
		t.Fatal(err)
	}
	// Failed queries release too.
	if _, err := disk.Extract([]graph.NodeID{-5}, extract.Options{Budget: 10}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned after queries", pins)
	}
}

// TestConcurrentPartitionedQueriesBitIdentical runs whole-graph queries
// concurrently on one disk engine with a 12-frame pool (each through its
// own counted view, evicting each other's pages) and requires every result
// to match the serial memory-backed answer exactly. Run under -race in CI;
// also guards against pool deadlock.
func TestConcurrentPartitionedQueriesBitIdentical(t *testing.T) {
	mem, disk, _ := buildMemAndDisk(t, 12)
	wantPR, err := mem.PageRank(analysis.PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantEx, err := mem.Extract([]graph.NodeID{0, 2}, extract.Options{Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				pr, err := disk.PageRank(analysis.PageRankOptions{})
				if err != nil {
					t.Errorf("PageRank: %v", err)
					return
				}
				for v := range wantPR {
					if math.Float64bits(pr[v]) != math.Float64bits(wantPR[v]) {
						t.Errorf("pagerank[%d] diverged under concurrency", v)
						return
					}
				}
				ex, err := disk.Extract([]graph.NodeID{0, 2}, extract.Options{Budget: 12})
				if err != nil {
					t.Errorf("Extract: %v", err)
					return
				}
				if ex.TotalGoodness != wantEx.TotalGoodness || len(ex.Nodes) != len(wantEx.Nodes) {
					t.Errorf("extraction diverged under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	pi := disk.Store().PoolInfo()
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames left pinned", pins)
	}
	if pi.Resident > pi.Capacity {
		t.Fatalf("resident %d exceeds capacity %d", pi.Resident, pi.Capacity)
	}
}

// TestConcurrentFaultDoesNotReclassifyValidationError: query A returning a
// plain validation error while another reader of the same file faults must
// keep A's error a client error (400 upstream), not ErrPagedIO (500). The
// engine classifies on the fault latch of A's own query view, which no
// other reader touches.
func TestConcurrentFaultDoesNotReclassifyValidationError(t *testing.T) {
	_, disk, _ := buildMemAndDisk(t, 16)
	adj, err := disk.Adj()
	if err != nil {
		t.Fatal(err)
	}
	paged := adj.(*gtree.PagedCSR)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				cur := paged.Cursor()
				cur.NeighborIDs(graph.NodeID(-1)) // latches on the store's base view
				cur.Close()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		_, err := disk.Extract([]graph.NodeID{graph.NodeID(1 << 30)}, extract.Options{Budget: 5})
		if err == nil {
			t.Fatal("out-of-range source accepted")
		}
		if errors.Is(err, ErrPagedIO) {
			t.Fatalf("validation error reclassified as backend fault: %v", err)
		}
	}
	close(stop)
	<-done
}
