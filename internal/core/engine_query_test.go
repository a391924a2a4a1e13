package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

// buildMemAndDisk returns a memory engine over the small fixture and a
// disk engine paging the same graph from a freshly saved file of
// 256-byte pages, and the file's path.
func buildMemAndDisk(t *testing.T, poolPages int) (*Engine, *Engine, string) {
	t.Helper()
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ga.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk, path
}

// TestAnalyzeGraphFaultMapsToErrPagedIO corrupts the file underneath a
// live disk engine and requires the whole-graph sweep to fail closed with
// ErrPagedIO (the server's 500) instead of returning a silently wrong
// report built from empty neighbor reads.
func TestAnalyzeGraphFaultMapsToErrPagedIO(t *testing.T) {
	_, disk, path := buildMemAndDisk(t, 8)
	// Warm call works.
	if _, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 5); err != nil {
		t.Fatal(err)
	}
	// Flip the checksum byte of every data page. The 8-frame pool is far
	// smaller than the file, so the next sweep must re-read corrupted
	// pages.
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
	if _, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 5); !errors.Is(err, ErrPagedIO) {
		t.Fatalf("AnalyzeGraph over corrupted file: %v, want ErrPagedIO", err)
	}
	// Extraction fails closed the same way.
	if _, err := disk.Extract([]graph.NodeID{0, 1}, extract.Options{Budget: 5}); !errors.Is(err, ErrPagedIO) {
		t.Fatalf("Extract over corrupted file: %v, want ErrPagedIO", err)
	}
}

// TestWholeGraphQueriesReleasePartitions: every whole-graph query path on
// a disk engine pins pages through its own counted view of the pool and
// must release every pin on exit — success or failure — so a long session
// never leaks a pinned (unevictable) frame.
func TestWholeGraphQueriesReleasePartitions(t *testing.T) {
	_, disk, _ := buildMemAndDisk(t, 16)
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
	want, err := mem.AnalyzeGraph(analysis.PageRankOptions{}, 10)
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
				got, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 10)
				if err != nil {
					t.Errorf("AnalyzeGraph: %v", err)
					return
				}
				for v := range want.PageRank {
					if math.Float64bits(got.PageRank[v]) != math.Float64bits(want.PageRank[v]) {
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
