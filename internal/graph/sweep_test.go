package graph

import (
	"math"
	"math/rand"
	"testing"
)

func sweepTestCSR(t *testing.T, n, m int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewWithNodes(n, false)
	for i := 0; i < m; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), rng.Float64()*10+0.1)
	}
	g.Dedup()
	return ToCSR(g)
}

// TestCSRSweepEdges pins the EdgeSweeper contract on the in-memory CSR:
// every node of the range emitted exactly once in ascending order —
// zero-degree nodes included — with rows identical to Neighbors.
func TestCSRSweepEdges(t *testing.T) {
	c := sweepTestCSR(t, 150, 400, 1) // sparse: plenty of zero-degree nodes
	next := NodeID(10)
	err := c.SweepEdges(10, NodeID(c.N()), func(u NodeID, nbrs []NodeID, ws []float64) bool {
		if u != next {
			t.Fatalf("emitted %d, expected %d", u, next)
		}
		next++
		wn, ww := c.Neighbors(u)
		if len(nbrs) != len(wn) || len(ws) != len(ww) {
			t.Fatalf("node %d: %d/%d entries, want %d", u, len(nbrs), len(ws), len(wn))
		}
		for i := range wn {
			if nbrs[i] != wn[i] || math.Float64bits(ws[i]) != math.Float64bits(ww[i]) {
				t.Fatalf("node %d entry %d differs", u, i)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(next) != c.N() {
		t.Fatalf("sweep stopped at %d of %d", next, c.N())
	}
}

// TestCSRSweepEarlyStop: fn returning false ends the sweep with nil error.
func TestCSRSweepEarlyStop(t *testing.T) {
	c := sweepTestCSR(t, 50, 100, 2)
	seen := 0
	err := c.SweepEdges(0, NodeID(c.N()), func(NodeID, []NodeID, []float64) bool {
		seen++
		return seen < 7
	})
	if err != nil || seen != 7 {
		t.Fatalf("early stop: err=%v seen=%d", err, seen)
	}
}

// TestCSRSweepBounds: out-of-range sweeps fail before any emission.
func TestCSRSweepBounds(t *testing.T) {
	c := sweepTestCSR(t, 20, 40, 3)
	for _, r := range [][2]NodeID{{-1, 5}, {5, 4}, {0, NodeID(c.N()) + 1}} {
		called := false
		if err := c.SweepEdges(r[0], r[1], func(NodeID, []NodeID, []float64) bool {
			called = true
			return true
		}); err == nil {
			t.Fatalf("sweep [%d,%d) did not error", r[0], r[1])
		}
		if called {
			t.Fatalf("sweep [%d,%d) emitted before failing", r[0], r[1])
		}
	}
}
