package gtree

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestSweepContextCancellation: a cancelled context aborts a query view's
// SweepEdges at a chunk boundary with the bare context error and latches
// no fault, while a non-cancellable or nil context costs nothing and
// sweeps to completion.
func TestSweepContextCancellation(t *testing.T) {
	// >2 sweep chunks (4096 nodes each), so a mid-sweep cancel has a chunk
	// boundary left to observe it.
	g := hubGraph(9000, 4000, 3, 11)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	open := func(ctx context.Context) (*QueryView, *PagedCSR) {
		t.Helper()
		qv, err := s.QueryView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return qv, qv.Adj.(*PagedCSR)
	}

	// A context that can never cancel leaves the view nothing to poll: no
	// per-sweep overhead for untimed queries.
	for _, ctx := range []context.Context{context.Background(), nil} {
		if _, v := open(ctx); v.done != nil {
			t.Errorf("view over a never-cancelled context (%v) polls it", ctx)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	qv, v := open(ctx)
	if v.done == nil {
		t.Fatal("view over a cancellable context does not poll it")
	}

	// Pre-cancelled: the sweep stops at the first chunk boundary, before
	// emitting anything.
	cancel()
	emitted := 0
	err = v.SweepEdges(0, graph.NodeID(v.N()), func(graph.NodeID, []graph.NodeID, []float64) bool {
		emitted++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Fatalf("pre-cancelled sweep emitted %d nodes", emitted)
	}
	if qc := qv.Counts(); qc.Faults != 0 || qv.Err() != nil {
		t.Fatalf("cancellation latched %d faults (%v)", qc.Faults, qv.Err())
	}

	// Mid-sweep: cancel from inside the callback; the sweep finishes the
	// current chunk (cancellation is cooperative at chunk boundaries) and
	// stops strictly short of a full pass.
	ctx2, cancel2 := context.WithCancel(context.Background())
	qv2, v2 := open(ctx2)
	emitted = 0
	err = v2.SweepEdges(0, graph.NodeID(v2.N()), func(graph.NodeID, []graph.NodeID, []float64) bool {
		emitted++
		cancel2()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel returned %v, want context.Canceled", err)
	}
	if emitted == 0 || emitted >= v2.N() {
		t.Fatalf("mid-sweep cancel emitted %d of %d nodes; want a strict partial pass", emitted, v2.N())
	}
	if qv2.Err() != nil {
		t.Fatalf("mid-sweep cancellation latched %v", qv2.Err())
	}

	// The shared view is untouched: a clean full sweep still works.
	next := 0
	if err := c.SweepEdges(0, graph.NodeID(c.N()), func(u graph.NodeID, _ []graph.NodeID, _ []float64) bool {
		next++
		return true
	}); err != nil {
		t.Fatalf("clean sweep after cancellations: %v", err)
	}
	if next != c.N() {
		t.Fatalf("clean sweep emitted %d of %d", next, c.N())
	}
}

// pollCtx reports cancellation from its (after+1)-th Err call on, so a test
// can cancel a build at an exact poll instead of at a wall-clock moment.
type pollCtx struct {
	context.Context
	after int32
	polls atomic.Int32
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildContextCancellation: Build polls its context before each
// community split; once it reads cancelled, no further split starts and the
// bare context error comes back with no tree.
func TestBuildContextCancellation(t *testing.T) {
	g := hubGraph(3000, 9000, 3, 17)
	opts := BuildOptions{K: 3, Levels: 4, Parallel: 1}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if tree, err := BuildContext(pre, g, opts); !errors.Is(err, context.Canceled) || tree != nil {
		t.Fatalf("pre-cancelled build returned (%v, %v), want (nil, context.Canceled)", tree, err)
	}

	// Cancel at the poll before the third split: the root and one level-1
	// community are split, then the build stops. With Parallel 1 that is
	// one more poll (the level's closing check), not one per remaining
	// community.
	mid := &pollCtx{Context: context.Background(), after: 3}
	if tree, err := BuildContext(mid, g, opts); !errors.Is(err, context.Canceled) || tree != nil {
		t.Fatalf("mid-build cancel returned (%v, %v), want (nil, context.Canceled)", tree, err)
	}
	if got := mid.polls.Load(); got != 5 {
		t.Fatalf("cancelled build polled its context %d times, want 5 (no split started after the cancel)", got)
	}
}
