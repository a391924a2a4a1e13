package extract

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// keyPath is one key-path solve on a fresh cursor and fresh DP tables —
// the shape the unit tests were written against; the extraction itself
// shares one cursor and one keyPathDP across its solves.
func keyPath(c graph.Adjacency, src, dst graph.NodeID, logGood []float64, maxLen int) []graph.NodeID {
	cur := c.Cursor()
	defer cur.Close()
	var dp keyPathDP
	return dp.path(cur, src, dst, logGood, maxLen)
}

// positiveLogGood gives every node of an n-node graph a finite random
// log-goodness, so the DP expands every reachable row at every level.
func positiveLogGood(rng *rand.Rand, n int) []float64 {
	lg := make([]float64, n)
	for i := range lg {
		lg[i] = math.Log(0.05 + rng.Float64())
	}
	return lg
}

// TestKeyPathDPReuseIsInvisible: solving many (source, destination) pairs
// on ONE keyPathDP and ONE cursor — tables and pins carried from solve to
// solve, path lengths changing in between — returns exactly the paths a
// fresh DP on a fresh cursor does, in memory and paged.
func TestKeyPathDPReuseIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		n := 60 + rng.Intn(200)
		g := randomConnected(rng, n, rng.Intn(3*n))
		logGood := positiveLogGood(rng, n)
		for v := 0; v < n; v += 7 {
			logGood[v] = math.Inf(-1) // zero-goodness nodes the DP must route around
		}
		for name, adj := range map[string]graph.Adjacency{"csr": graph.ToCSR(g), "paged": pagedFixture(t, g, 6+rng.Intn(32))} {
			cur := adj.Cursor()
			var dp keyPathDP
			for q := 0; q < 12; q++ {
				src, dst := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				maxLen := 2 + rng.Intn(9)
				got := dp.path(cur, src, dst, logGood, maxLen)
				cur.Close() // the reference reads the backend on this goroutine
				want := keyPath(adj, src, dst, logGood, maxLen)
				if len(got) != len(want) {
					t.Fatalf("trial %d %s query %d: reused DP found %v, fresh DP %v", trial, name, q, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s query %d: reused DP found %v, fresh DP %v", trial, name, q, got, want)
					}
				}
			}
			cur.Close()
		}
	}
}

// TestKeyPathPinsPerDP pins the perf claim behind the row cursor, in the
// style of gtree's TestPagedSweepPinsPerIteration: one key-path DP reads
// rows in ascending node order at every level, so through a cursor it
// costs the pool at most one pin per Xadj and Adjncy page per level (plus
// a constant) and never touches EdgeW — where the one-shot reads it
// replaces paid two or more pins per row. Asserted on the pool's own
// hit/miss counters.
func TestKeyPathPinsPerDP(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n, maxLen = 3000, 10
	g := randomConnected(rng, n, 9000)
	s, paged := pagedStoreFixture(t, g, 4096)
	logGood := positiveLogGood(rng, n)
	const payload = 252 // 256-byte pages minus CRC
	xadjPages := storage.RunPages(n+1, 4, payload)
	adjncyPages := storage.RunPages(paged.HalfEdges(), 4, payload)

	gets := func() uint64 { st := s.PoolStats(); return st.Hits + st.Misses }
	s.ResetPoolStats()
	path := keyPath(paged, 0, graph.NodeID(n-1), logGood, maxLen)
	dpGets := gets()
	if len(path) < 2 {
		t.Fatalf("no key path on a connected graph: %v", path)
	}
	if err := paged.Err(); err != nil {
		t.Fatal(err)
	}
	bound := uint64(maxLen*(xadjPages+adjncyPages) + 8)
	if dpGets > bound {
		t.Fatalf("one key-path DP pinned %d pages, want <= %d (%d levels x (%d xadj + %d adjncy pages))",
			dpGets, bound, maxLen, xadjPages, adjncyPages)
	}
	rows, pins := paged.CursorCounts()
	if uint64(pins) != dpGets {
		t.Fatalf("cursor counted %d pins, the pool %d", pins, dpGets)
	}
	// The premise: the DP read several rows per pinned page (a 252-byte
	// page holds 63 offsets but only a handful of these rows' ids), and
	// would have paid at least two pins per row without the cursor.
	if rows < 4*n || uint64(rows) < 3*dpGets {
		t.Fatalf("DP read %d rows for %d pins — contrast premise broken", rows, dpGets)
	}
	s.ResetPoolStats()
	var nbrs []graph.NodeID
	for u := 0; u < n; u++ {
		nbrs = paged.NeighborIDsInto(graph.NodeID(u), nbrs[:0])
	}
	if oneShot := gets(); oneShot < 2*n {
		t.Fatalf("one-shot pass pinned %d pages for %d rows — contrast premise broken", oneShot, n)
	}
	if pinsHeld := s.PinnedFrames(); pinsHeld != 0 {
		t.Fatalf("%d frames pinned after the DP", pinsHeld)
	}
}
