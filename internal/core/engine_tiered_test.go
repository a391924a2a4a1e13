package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
)

// tieredTrio builds the three backends of the identity property over one
// graph: a memory engine, a plain paged engine, and a paged engine with a
// tier budget whose queries promote the whole graph into memory.
func tieredTrio(t *testing.T, budget int64) (mem, paged, tiered *Engine) {
	t.Helper()
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tier.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	paged, err = OpenEngine(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { paged.Close() })
	tiered, err = OpenEngine(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tiered.Close() })
	tiered.SetTierBudget(budget)
	return mem, paged, tiered
}

// requireTierServing is the premise of the last comparisons: the tiered
// engine holds a resident tier and has already served rows from it, so
// the final queries compare a tier-served result against memory.
func requireTierServing(t *testing.T, e *Engine) {
	t.Helper()
	if ti := e.Store().TierInfo(); ti == nil || ti.Fragments == 0 || ti.Hits == 0 {
		t.Fatalf("tier not serving before the last comparisons: %+v", ti)
	}
}

// TestTieredExtractionPropertyIdentity is the tiering acceptance property:
// random source sets and combine modes must extract bit-identically on a
// memory engine, a plain paged engine, and a tiered engine — across enough
// queries that the tiered engine's query-amortized promoter has loaded
// the graph and later queries read it from memory. Run with -race: the
// promotion step races the next query's sweeps.
func TestTieredExtractionPropertyIdentity(t *testing.T) {
	const budget = 1 << 20
	mem, paged, tiered := tieredTrio(t, budget)
	n := mem.Graph().NumNodes()
	rng := rand.New(rand.NewSource(7))
	modes := []extract.CombineMode{extract.CombineAND, extract.CombineOR, extract.CombineKSoftAND}
	for trial := 0; trial < 8; trial++ {
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
			RWR:    extract.RWROptions{Parallel: 1 + trial%3},
		}
		if trial == 7 {
			requireTierServing(t, tiered)
		}
		want, errM := mem.Extract(sources, opts)
		gotP, errP := paged.Extract(sources, opts)
		gotT, errT := tiered.Extract(sources, opts)
		if (errM == nil) != (errP == nil) || (errM == nil) != (errT == nil) {
			t.Fatalf("trial %d: error divergence: mem=%v paged=%v tiered=%v", trial, errM, errP, errT)
		}
		if errM != nil {
			continue
		}
		equalResults(t, "paged", want, gotP)
		equalResults(t, "tiered", want, gotT)
	}

	ti := tiered.Store().TierInfo()
	if ti == nil || ti.Promotions == 0 {
		t.Fatalf("tiered engine promoted nothing across 8 queries: %+v", ti)
	}
	if ti.Bytes > budget {
		t.Fatalf("resident tier bytes %d exceed budget %d", ti.Bytes, budget)
	}
	// The plain paged engine must not have grown a tier (the knob is
	// per-engine, not ambient).
	if pi := paged.Store().TierInfo(); pi != nil {
		t.Fatalf("untiered engine reports tier state: %+v", pi)
	}
}

// TestTieredPageRankAndAnalysisIdentity: whole-graph PageRank and the
// structure report are bit-identical across memory, paged and tiered
// backends, before and after promotion.
func TestTieredPageRankAndAnalysisIdentity(t *testing.T) {
	mem, paged, tiered := tieredTrio(t, 1<<20)
	for round := 0; round < 3; round++ {
		if round == 2 {
			requireTierServing(t, tiered)
		}
		want, err := mem.PageRank(analysis.PageRankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]*Engine{"paged": paged, "tiered": tiered} {
			got, err := eng.PageRank(analysis.PageRankOptions{})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d vs %d ranks", round, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("round %d %s: rank[%d] = %v, memory %v", round, name, i, got[i], want[i])
				}
			}
		}

		wantRep, err := mem.AnalyzeGraph(analysis.PageRankOptions{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]*Engine{"paged": paged, "tiered": tiered} {
			rep, err := eng.AnalyzeGraph(analysis.PageRankOptions{}, 10)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if !reflect.DeepEqual(rep.AdjacencyReport, wantRep.AdjacencyReport) ||
				!reflect.DeepEqual(rep.TopRanked, wantRep.TopRanked) ||
				!reflect.DeepEqual(rep.TopLabels, wantRep.TopLabels) {
				t.Fatalf("round %d %s: analysis diverged from memory", round, name)
			}
			for i := range wantRep.PageRank {
				if math.Float64bits(rep.PageRank[i]) != math.Float64bits(wantRep.PageRank[i]) {
					t.Fatalf("round %d %s: analysis rank[%d] differs", round, name, i)
				}
			}
		}
	}
	if ti := tiered.Store().TierInfo(); ti == nil || ti.Promotions == 0 {
		t.Fatalf("whole-graph rounds promoted nothing: %+v", ti)
	}
}
