package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
)

// TestPagedExtractionPropertyIdentity is the acceptance property: random
// source sets, combine modes and parallelism over the same graph must
// produce bit-identical extractions on a memory-backed engine and a
// disk-backed engine paging a file through a small buffer pool.
func TestPagedExtractionPropertyIdentity(t *testing.T) {
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	rng := rand.New(rand.NewSource(42))
	n := ds.Graph.NumNodes()
	modes := []extract.CombineMode{extract.CombineAND, extract.CombineOR, extract.CombineKSoftAND}
	for trial := 0; trial < 6; trial++ {
		srcSet := map[graph.NodeID]bool{}
		for len(srcSet) < 2+rng.Intn(3) {
			srcSet[graph.NodeID(rng.Intn(n))] = true
		}
		var sources []graph.NodeID
		for s := range srcSet {
			sources = append(sources, s)
		}
		opts := extract.Options{
			Budget: 8 + rng.Intn(12),
			Mode:   modes[trial%len(modes)],
			K:      2,
			RWR:    extract.RWROptions{Parallel: 1 + trial%3}, // includes Parallel > 1
		}
		want, errM := mem.Extract(sources, opts)
		got, errD := disk.Extract(sources, opts)
		if (errM == nil) != (errD == nil) {
			t.Fatalf("trial %d: error divergence: mem=%v disk=%v", trial, errM, errD)
		}
		if errM != nil {
			continue
		}
		equalResults(t, "extract", want, got)
	}

	// Label-resolved extraction matches too.
	labels := []string{dblp.NamePhilipYu, dblp.NameFlipKorn, dblp.NameGarofalakis}
	want, err := mem.ExtractByLabels(labels, extract.Options{Budget: 25, RWR: extract.RWROptions{Parallel: 3}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := disk.ExtractByLabels(labels, extract.Options{Budget: 25, RWR: extract.RWROptions{Parallel: 3}})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "byLabels", want, got)

	// The paged run must have actually paged: the 16-page pool is far
	// smaller than the CSR section of this graph.
	pi := disk.Store().PoolInfo()
	if pi.Evictions == 0 {
		t.Fatalf("paged extraction never evicted (pool %d, file %d pages) — not out of core", pi.Capacity, pi.FilePages)
	}
	if pi.Resident > pi.Capacity {
		t.Fatalf("resident %d exceeds capacity %d", pi.Resident, pi.Capacity)
	}
}

// TestEnginePageRankMatchesAcrossBackends checks whole-graph PageRank over
// the paged adjacency, as AnalyzeGraph reports it, is bit-identical to the
// in-memory run.
func TestEnginePageRankMatchesAcrossBackends(t *testing.T) {
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pr.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	wantRep, err := mem.AnalyzeGraph(analysis.PageRankOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := disk.AnalyzeGraph(analysis.PageRankOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, got := wantRep.PageRank, gotRep.PageRank
	if len(got) != len(want) {
		t.Fatalf("%d vs %d ranks", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("rank[%d] = %v, memory %v", i, got[i], want[i])
		}
	}
}

// TestPagedExtractTinyPoolWideParallel pins the fix for spurious pool
// exhaustion: a pool far narrower than the worker fan-out serializes
// paging (Get waits for a Release) instead of failing queries on a
// healthy file.
func TestPagedExtractTinyPoolWideParallel(t *testing.T) {
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenEngine(path, 2) // 2-frame pool
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	sources := []graph.NodeID{ds.Notables[dblp.NamePhilipYu], ds.Notables[dblp.NameFlipKorn], 0, 1}
	opts := extract.Options{Budget: 10, RWR: extract.RWROptions{Parallel: 8}}
	want, err := mem.Extract(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := disk.Extract(sources, opts)
	if err != nil {
		t.Fatalf("tiny pool + wide parallelism failed: %v", err)
	}
	equalResults(t, "tinyPool", want, got)
}
