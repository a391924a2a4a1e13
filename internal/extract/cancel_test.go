package extract

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// cancelFixture is a small connected graph for kernel cancellation tests.
func cancelFixture() *graph.CSR {
	g := graph.NewWithNodes(50, false)
	for i := 0; i < 49; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		g.AddEdge(graph.NodeID(i), graph.NodeID((i*7)%50), 0.5)
	}
	g.Dedup()
	return graph.ToCSR(g)
}

// TestRWRSetContextCancellation: a cancelled RWROptions.Ctx aborts the
// power iteration at an iteration boundary with the bare context error,
// and a nil Ctx solves exactly as before.
func TestRWRSetContextCancellation(t *testing.T) {
	c := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RWRSet(c, []graph.NodeID{0, 3}, RWROptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RWRSet returned %v, want context.Canceled", err)
	}
	if _, err := RWRSet(c, []graph.NodeID{0, 3}, RWROptions{}); err != nil {
		t.Fatalf("nil-ctx RWRSet failed: %v", err)
	}
}

// TestRWRCtxDoesNotChangeResults: Ctx is an execution knob — an
// uncancelled context must not perturb a single bit of the solve.
func TestRWRCtxDoesNotChangeResults(t *testing.T) {
	c := cancelFixture()
	want, err := RWRSet(c, []graph.NodeID{1, 4}, RWROptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RWRSet(c, []graph.NodeID{1, 4}, RWROptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("p[%d] = %v with ctx, %v without", i, got[i], want[i])
		}
	}
}
