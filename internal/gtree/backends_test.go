package gtree

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/storage"
)

// backend is one row of TestBackends: a graph.Adjacency over the table's
// graph, opened fresh on every call. An opener may register checks of the
// row's own premise (that a tier holds what the row says it does) with
// t.Cleanup; they run when the row's subtest ends.
type backend struct {
	name string
	open graphtest.Opener
}

// backends lists every Adjacency backend over g, one row each.
func backends(t *testing.T, g *graph.Graph) []backend {
	files := map[int][]byte{}
	// store opens a fresh store over g saved at pageSize, with its own
	// cold pool of poolPages frames, reading through a fault injector.
	store := func(t *testing.T, pageSize, poolPages int) (*Store, *storage.FaultInjector) {
		t.Helper()
		if files[pageSize] == nil {
			f := storage.NewMemFile(nil)
			tree, err := Build(g, BuildOptions{K: 3, Levels: 3})
			if err == nil {
				err = SaveTo(tree, g, f, pageSize)
			}
			if err != nil {
				t.Fatal(err)
			}
			files[pageSize] = f.Bytes()
		}
		inj := storage.NewFaultInjector(storage.NewMemFile(files[pageSize]), 1)
		s, err := OpenWith(inj, poolPages)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, inj
	}
	// view opens a query view of a fresh store, probed through its pool
	// and its own fault latch; setup runs on the store before the view
	// opens.
	view := func(pageSize, poolPages int, ctx context.Context, setup func(*testing.T, *Store)) graphtest.Opener {
		return func(t *testing.T) (graph.Adjacency, *graphtest.Probe) {
			s, inj := store(t, pageSize, poolPages)
			if setup != nil {
				setup(t, s)
			}
			qv, err := s.QueryView(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return qv.Adj, &graphtest.Probe{
				Pins:   s.PinnedFrames,
				Faults: func() uint64 { return qv.Counts().Faults },
				Fail: func() {
					for range 4 { // every attempt of one read
						inj.Script(storage.FaultErr)
					}
				},
			}
		}
	}
	bg := context.Background()

	rows := []backend{
		{"csr", func(*testing.T) (graph.Adjacency, *graphtest.Probe) { return graph.ToCSR(g), nil }},
		// What BuildEngine serves: the whole graph promoted at a budget of
		// exactly its cost, read without a pool pin.
		{"promoted", func(t *testing.T) (graph.Adjacency, *graphtest.Probe) {
			s, _ := store(t, 0, 64)
			if err := s.PromoteTier(); err != nil {
				t.Fatal(err)
			}
			qv, err := s.QueryView(bg)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := s.PagedCSR()
			if ti := s.TierInfo(); !qv.Counts().Resident || ti.Fragments != 1 || ti.Bytes != tierCost(c) || ti.Promotions != 1 {
				t.Fatalf("view over a promoted store pages: %+v", ti)
			}
			if c.Tiered().Promote() != 0 {
				t.Fatal("a second Promote republished the resident CSR")
			}
			if ti := s.TierInfo(); ti.Hits != 2 || ti.Misses != 0 {
				t.Fatalf("tier counted %d memory and %d paged views, want 2 and 0", ti.Hits, ti.Misses)
			}
			t.Cleanup(func() {
				if pins := qv.Counts().Pool; pins.Hits+pins.Misses != 0 {
					t.Errorf("resident reads took %d pool pins", pins.Hits+pins.Misses)
				}
			})
			return qv.Adj, &graphtest.Probe{Pins: s.PinnedFrames}
		}},
	}
	for _, pageSize := range []int{256, 1024} {
		for _, pool := range []int{2, 16, 4096} {
			rows = append(rows, backend{fmt.Sprintf("paged/page=%d/pool=%d", pageSize, pool), view(pageSize, pool, bg, nil)})
		}
	}
	bigEndian := view(256, 16, bg, nil)
	rows = append(rows,
		// The decode path of big-endian hosts: frame rows and sweep windows
		// decoded instead of viewed.
		backend{"big-endian", func(t *testing.T) (graph.Adjacency, *graphtest.Probe) {
			native := nativeLE
			nativeLE = false
			t.Cleanup(func() { nativeLE = native })
			return bigEndian(t)
		}},
		// One byte short of the decoded CSR: nothing is promoted and every
		// read pages.
		backend{"tiered/below-budget", view(256, 4096, bg, func(t *testing.T, s *Store) {
			c, _ := s.PagedCSR()
			s.SetTierBudget(tierCost(c) - 1)
			if ti := s.TierInfo(); c.Tiered().Promote() != 0 || ti.Fragments != 0 || ti.Hits != 0 {
				t.Fatalf("below-budget tier promoted or read memory: %+v", ti)
			}
		})},
	)
	ctx, cancel := context.WithCancel(bg)
	t.Cleanup(cancel)
	return append(rows, backend{"query-view/live-ctx", view(512, 16, ctx, nil)})
}

// TestBackends runs graphtest.TestAdjacency on every backend row. Adding
// or removing a backend is one row of backends. Rows run one at a time:
// the big-endian row clears the package-wide nativeLE while it runs.
func TestBackends(t *testing.T) {
	g := hubGraph(600, 2500, 3, 61) // ~7k half-edges: several sweep windows; hubs straddle many pages
	zero, loops := 0, 0
	for u := range graph.NodeID(g.NumNodes()) {
		if g.Degree(u) == 0 {
			zero++
		}
		if g.HasEdge(u, u) {
			loops++
		}
	}
	if zero == 0 || loops == 0 {
		t.Fatalf("fixture has %d zero-degree rows and %d self-loops, want some of each", zero, loops)
	}
	for _, b := range backends(t, g) {
		t.Run(b.name, func(t *testing.T) { graphtest.TestAdjacency(t, g, b.open) })
	}
}
