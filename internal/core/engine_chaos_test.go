package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/storage"
)

// chaosEngines builds the fixture once, persists it, and opens a
// disk-backed engine whose backing file runs behind a FaultInjector the
// test controls. Returns the memory baseline, the chaotic disk engine and
// the injector.
func chaosEngines(t *testing.T, poolPages int, seed int64) (*Engine, *Engine, *storage.FaultInjector) {
	t.Helper()
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chaos.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	var inj *storage.FaultInjector
	disk, err := OpenEngineWrapped(path, poolPages, func(f storage.File) storage.File {
		inj = storage.NewFaultInjector(f, seed)
		return inj
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk, inj
}

// TestChaosSoakBitIdentityUnderTransientFaults is the acceptance soak:
// with a ≥1% seeded transient fault rate on every page read (bit flips
// that heal on re-read, transient errors, short reads), concurrent
// extraction, PageRank and whole-graph analysis must produce results
// bit-identical to the clean in-memory engine — the retry layer heals
// every fault below the queries' fault latches — and once the soak
// drains, the pool must hold zero pinned frames.
func TestChaosSoakBitIdentityUnderTransientFaults(t *testing.T) {
	mem, disk, inj := chaosEngines(t, 16, 7)
	inj.SetRate(0.02, storage.FaultFlip, storage.FaultErr, storage.FaultShort)

	// Baselines from the clean memory engine.
	ds := dblp.SmallFixture()
	n := ds.Graph.NumNodes()
	rng := rand.New(rand.NewSource(99))
	type trial struct {
		sources []graph.NodeID
		opts    extract.Options
		want    *extract.Result
	}
	modes := []extract.CombineMode{extract.CombineAND, extract.CombineOR, extract.CombineKSoftAND}
	var trials []trial
	for i := 0; i < 4; i++ {
		srcSet := map[graph.NodeID]bool{}
		for len(srcSet) < 2+rng.Intn(2) {
			srcSet[graph.NodeID(rng.Intn(n))] = true
		}
		var sources []graph.NodeID
		for s := range srcSet {
			sources = append(sources, s)
		}
		opts := extract.Options{Budget: 10 + rng.Intn(10), Mode: modes[i%len(modes)], K: 2}
		want, err := mem.Extract(sources, opts)
		if err != nil {
			continue
		}
		trials = append(trials, trial{sources, opts, want})
	}
	if len(trials) == 0 {
		t.Fatal("no usable baseline trials")
	}
	// MaxIter keeps the paged whole-file sweep affordable in the soak; the
	// identity contract holds for any iteration count.
	prOpts := analysis.PageRankOptions{MaxIter: 12}
	wantRank, err := mem.PageRank(prOpts)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 4, 2
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				tr := trials[(w+it)%len(trials)]
				got, err := disk.Extract(tr.sources, tr.opts)
				if err != nil {
					errc <- err
					continue
				}
				if len(got.Nodes) != len(tr.want.Nodes) {
					t.Errorf("worker %d iter %d: %d nodes, want %d", w, it, len(got.Nodes), len(tr.want.Nodes))
					continue
				}
				for i := range got.Goodness {
					if math.Float64bits(got.Goodness[i]) != math.Float64bits(tr.want.Goodness[i]) {
						t.Errorf("worker %d iter %d: goodness[%d] diverged under chaos", w, it, i)
						break
					}
				}
				if w == 0 && it == 0 {
					gotRank, err := disk.PageRank(prOpts)
					if err != nil {
						errc <- err
						continue
					}
					for i := range wantRank {
						if math.Float64bits(gotRank[i]) != math.Float64bits(wantRank[i]) {
							t.Errorf("pagerank[%d] diverged under chaos", i)
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	// Rate injection is transient by construction: the injector follows
	// readAttempts-1 consecutive faults at one offset with a clean read,
	// so no page load can exhaust its retry budget. (Independent draws
	// would not do: 0.02^4 = 1.6e-7 per read, times the ~1.1 M eligible
	// reads of this soak, is a ~17% chance per run of a spurious permanent
	// fault.) Any query error here is a real bug, not bad luck.
	for err := range errc {
		t.Errorf("query failed under transient chaos: %v", err)
	}

	rs := disk.Store().RetryStats()
	if rs.Healed == 0 {
		t.Fatalf("soak healed no reads (stats %+v, injector %+v) — injection never engaged", rs, inj.Stats())
	}
	if rs.Failed != 0 {
		t.Errorf("soak latched %d permanent faults; transient-only injection must heal", rs.Failed)
	}
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned after soak", pins)
	}
}

// TestChaosRetryExhaustionFailsQueryOnce: when a read's transient faults
// outlast the retry budget, the query's own view latches exactly one
// fault, the query fails with ErrPagedIO, and the next query (clean reads)
// succeeds — the session survives the fault.
func TestChaosRetryExhaustionFailsQueryOnce(t *testing.T) {
	_, disk, inj := chaosEngines(t, 4, 3)

	// Four consecutive scripted transient errors exhaust readAttempts on
	// the next query's first file read — the store's offset-table build,
	// one window re-read whole on every attempt, and never cached after
	// the fault.
	inj.Script(storage.FaultErr, storage.FaultErr, storage.FaultErr, storage.FaultErr)
	tr := obs.NewTrace("exhausted")
	_, err := disk.PageRankTraced(context.Background(), tr, analysis.PageRankOptions{})
	if err == nil {
		t.Fatal("query succeeded through retry exhaustion")
	}
	if !errors.Is(err, ErrPagedIO) {
		t.Fatalf("exhausted retries surfaced as %v, want ErrPagedIO", err)
	}
	if f := tr.CountValue("pool.faults"); f != 1 {
		t.Fatalf("query latched %d faults, want exactly 1", f)
	}
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned after failed query", pins)
	}

	// Script drained: the same query now reads clean.
	tr = obs.NewTrace("clean")
	if _, err := disk.PageRankTraced(context.Background(), tr, analysis.PageRankOptions{}); err != nil {
		t.Fatalf("clean query after fault failed: %v", err)
	}
	if f := tr.CountValue("pool.faults"); f != 0 {
		t.Fatalf("clean query latched %d faults", f)
	}
}

// TestChaosCancellationReleasesEverything: cancelled queries (both
// pre-cancelled and cancelled mid-flight under concurrency) return the
// context error unwrapped, never latch a fault on their views, and leave
// zero pinned frames behind.
func TestChaosCancellationReleasesEverything(t *testing.T) {
	_, disk, _ := chaosEngines(t, 16, 5)
	var traces []*obs.Trace
	trace := func() *obs.Trace {
		tr := obs.NewTrace("cancelled")
		traces = append(traces, tr)
		return tr
	}
	sources := []graph.NodeID{0, 1, 2}
	opts := extract.Options{Budget: 20}

	// Deterministic: already-cancelled context aborts at the first
	// cooperative checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := disk.ExtractTraced(ctx, trace(), sources, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled extract: %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrPagedIO) {
		t.Fatalf("cancellation misclassified as paged fault: %v", err)
	}
	if _, err := disk.AnalyzeGraphTraced(ctx, trace(), analysis.PageRankOptions{}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled analysis: %v, want context.Canceled", err)
	}

	// Mid-expand: the cancel fires as the "rwr" stage completes, so the
	// key-path rounds start under a dead context with their row cursor
	// open; the extraction must stop there, and the cursor's sticky pins
	// must unwind with it.
	ectx, ecancel := context.WithCancel(context.Background())
	stages := map[string]bool{}
	mid := opts
	mid.StageHook = func(stage string, _ time.Time, _ time.Duration) {
		stages[stage] = true
		if stage == "rwr" {
			ecancel()
		}
	}
	_, err = disk.ExtractTraced(ectx, nil, sources, mid) // a trace would replace the hook
	ecancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("extract cancelled mid-expand: %v, want context.Canceled", err)
	}
	if !stages["rwr"] || stages["expand"] || stages["induce"] {
		t.Fatalf("cancel after rwr should stop inside expand; stages completed: %v", stages)
	}
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned after a mid-expand cancel", pins)
	}

	// Racy: concurrent queries cancelled at random points mid-solve.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		tr := trace()
		go func(w int) {
			defer wg.Done()
			cctx, ccancel := context.WithTimeout(context.Background(), time.Duration(w)*200*time.Microsecond)
			defer ccancel()
			_, err := disk.ExtractTraced(cctx, tr, sources, opts)
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("worker %d: cancelled extract returned %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	for _, tr := range traces {
		if f := tr.CountValue("pool.faults"); f != 0 {
			t.Errorf("a cancelled query latched %d faults", f)
		}
	}
	if pins := disk.Store().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned after cancellations", pins)
	}
}
