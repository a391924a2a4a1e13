package extract

import (
	"math"
	"math/rand"
	"slices"
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

// path is one (source, destination) solve: a fused build of width one and
// its walk-back — the reference the fused builds are checked against.
func (d *keyPathDP) path(cur graph.RowCursor, src, dst graph.NodeID, logGood []float64, maxLen int) []graph.NodeID {
	d.build(cur, []graph.NodeID{src}, dst, logGood, maxLen)
	return d.walk(0, dst)
}

// naiveKeyPath is the key-path DP written for clarity — fresh tables per
// call, rows read one-shot, one source — as the oracle for the fused
// builds: dp[l][v] is the best log-goodness sum of an l-edge walk src..v,
// ties going to the lowest predecessor and the shortest length.
func naiveKeyPath(adj graph.Adjacency, src, dst graph.NodeID, logGood []float64, maxLen int) []graph.NodeID {
	if src == dst {
		return []graph.NodeID{src}
	}
	n, negInf := len(logGood), math.Inf(-1)
	score := make([][]float64, maxLen+1)
	parent := make([][]graph.NodeID, maxLen+1)
	for l := range score {
		score[l], parent[l] = make([]float64, n), make([]graph.NodeID, n)
		for v := range score[l] {
			score[l][v] = negInf
		}
	}
	score[0][src] = logGood[src]
	bestLen := -1
	for l := 1; l <= maxLen; l++ {
		for u := 0; u < n; u++ {
			if score[l-1][u] == negInf {
				continue
			}
			cur := adj.Cursor()
			nbrs := cur.NeighborIDs(graph.NodeID(u), nil)
			cur.Close()
			for _, v := range nbrs {
				if c := score[l-1][u] + logGood[v]; logGood[v] != negInf && c > score[l][v] {
					score[l][v], parent[l][v] = c, graph.NodeID(u)
				}
			}
		}
		if score[l][dst] > negInf && (bestLen < 0 || score[l][dst] > score[bestLen][dst]) {
			bestLen = l
		}
	}
	if bestLen < 0 {
		return nil
	}
	chain := []graph.NodeID{dst}
	for l, v := bestLen, dst; l >= 1; l-- {
		v = parent[l][v]
		chain = append(chain, v)
	}
	slices.Reverse(chain)
	var path []graph.NodeID
	for _, v := range chain {
		if !slices.Contains(path, v) {
			path = append(path, v)
		}
	}
	return path
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
// style of gtree's TestPagedSweepReadsPerIteration: one key-path DP reads
// rows in ascending node order at every level, so through a cursor it
// costs the pool at most one pin per Adjncy page per level (plus a
// constant) and never touches EdgeW — row bounds come from the store's
// offset table, which pins nothing — where the one-shot reads it replaces
// paid a pin or more per row. Asserted on the pool's own hit/miss
// counters.
func TestKeyPathPinsPerDP(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n, maxLen = 3000, 10
	g := randomConnected(rng, n, 9000)
	s, paged := pagedStoreFixture(t, g, 4096)
	logGood := positiveLogGood(rng, n)
	const payload = 252 // 256-byte pages minus CRC
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
	bound := uint64(maxLen*adjncyPages + 8)
	if dpGets > bound {
		t.Fatalf("one key-path DP pinned %d pages, want <= %d (%d levels x %d adjncy pages)",
			dpGets, bound, maxLen, adjncyPages)
	}
	rows, pins := paged.CursorCounts()
	if uint64(pins) != dpGets {
		t.Fatalf("cursor counted %d pins, the pool %d", pins, dpGets)
	}
	// The premise: the DP read several rows per pinned page (a 252-byte
	// page holds only a handful of these rows' ids), and would have paid
	// at least one pin per row without the cursor.
	if rows < 4*n || uint64(rows) < 3*dpGets {
		t.Fatalf("DP read %d rows for %d pins — contrast premise broken", rows, dpGets)
	}
	s.ResetPoolStats()
	var nbrs []graph.NodeID
	for u := 0; u < n; u++ {
		cur := paged.Cursor()
		nbrs = cur.NeighborIDs(graph.NodeID(u), nbrs[:0])
		cur.Close()
	}
	if oneShot := gets(); oneShot < n {
		t.Fatalf("one-shot pass pinned %d pages for %d rows — contrast premise broken", oneShot, n)
	}
	if pinsHeld := s.PinnedFrames(); pinsHeld != 0 {
		t.Fatalf("%d frames pinned after the DP", pinsHeld)
	}
}

// TestKeyPathFusedMatchesPerSource is the property test of the fused DP:
// one build over a group of sources returns, per source, exactly the path
// the naive one-pair DP finds for that (source, destination) — in memory and
// paged, across reused tables, with the destination among the sources
// (src == dst never runs a DP), a destination in another component, nodes
// of zero goodness (-Inf) to route around or to start from, and path
// lengths from 1 up.
func TestKeyPathFusedMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		n := 60 + rng.Intn(160)
		// The last five nodes form a component of their own: unreachable
		// from the body and the body from them.
		g := randomConnected(rng, n-5, rng.Intn(2*n))
		g.AddNodes(5)
		for i := n - 5; i < n-1; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		}
		logGood := positiveLogGood(rng, n)
		for v := 0; v < n; v += 6 {
			logGood[v] = math.Inf(-1)
		}
		for name, adj := range map[string]graph.Adjacency{"csr": graph.ToCSR(g), "paged": pagedFixture(t, g, 6+rng.Intn(32))} {
			cur := adj.Cursor()
			var dp keyPathDP
			for q := 0; q < 16; q++ {
				srcs := make([]graph.NodeID, 1+rng.Intn(maxFusedSources))
				for i := range srcs {
					srcs[i] = graph.NodeID(rng.Intn(n))
				}
				dst := graph.NodeID(rng.Intn(n))
				if q%4 == 0 {
					dst = srcs[rng.Intn(len(srcs))]
				}
				maxLen := 1 + rng.Intn(6)
				dp.build(cur, srcs, dst, logGood, maxLen)
				got := make([][]graph.NodeID, len(srcs))
				for j := range srcs {
					got[j] = append([]graph.NodeID(nil), dp.walk(j, dst)...)
				}
				cur.Close() // the reference reads the backend on this goroutine
				for j, src := range srcs {
					want := naiveKeyPath(adj, src, dst, logGood, maxLen)
					if !slices.Equal(got[j], want) {
						t.Fatalf("trial %d %s query %d: sources %v -> %d (maxLen %d): fused found %v for source %d, alone %v",
							trial, name, q, srcs, dst, maxLen, got[j], src, want)
					}
				}
			}
			cur.Close()
		}
	}
}

// TestExtractFusedGroupsMatchPerPair: with more sources than one build
// fuses, the extraction walks the groups in source order under the same
// budget checks, and chooses the node sequence the per-(source,
// destination) loop does.
func TestExtractFusedGroupsMatchPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 4; trial++ {
		n := 80 + rng.Intn(80)
		g := randomConnected(rng, n, 2*n)
		var sources []graph.NodeID
		for _, s := range rng.Perm(n)[:2*maxFusedSources+1] {
			sources = append(sources, graph.NodeID(s))
		}
		// Budgets just above the source count fill mid-round, mid-group.
		for _, budget := range []int{len(sources) + 2, 40} {
			opts := Options{Budget: budget, Mode: CombineMode(trial % 3), K: 3, MaxPathLen: 4 + trial}
			got, err := ConnectionSubgraph(g, sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := fullScanExtract(t, g, sources, opts); !slices.Equal(got.Nodes, want) {
				t.Fatalf("trial %d budget %d: fused groups chose %v, per-pair loop %v", trial, budget, got.Nodes, want)
			}
		}
	}
}

// TestKeyPathFusedReadsEachRowOnce pins what fusing buys, as a count: at
// every level a build reads the union of its sources' frontiers — each row
// once, however many sources need it — where per-source solves read the
// frontiers one by one. Counted on the paged cursor's own row counter.
func TestKeyPathFusedReadsEachRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const n, maxLen = 400, 5
	g := randomConnected(rng, n, 600)
	paged := pagedFixture(t, g, 16)
	logGood := positiveLogGood(rng, n)
	for v := 3; v < n; v += 9 {
		logGood[v] = math.Inf(-1)
	}
	srcs := []graph.NodeID{0, 1, 200, 399}
	const dst = graph.NodeID(77)
	// reach[j] is source j's frontier: the nodes some l-edge walk through
	// positive-goodness nodes ends on. Source 399 has zero goodness itself
	// and never leaves.
	reach := make([]map[graph.NodeID]bool, len(srcs))
	for j, s := range srcs {
		reach[j] = map[graph.NodeID]bool{}
		if !math.IsInf(logGood[s], -1) {
			reach[j][s] = true
		}
	}
	var union, sum int64
	for l := 0; l < maxLen; l++ {
		all := map[graph.NodeID]bool{}
		for j := range reach {
			next := map[graph.NodeID]bool{}
			for u := range reach[j] {
				all[u] = true
				for _, e := range g.Neighbors(u) {
					if !math.IsInf(logGood[e.To], -1) {
						next[e.To] = true
					}
				}
			}
			sum += int64(len(reach[j]))
			reach[j] = next
		}
		union += int64(len(all))
	}
	rowsOf := func(solve func(*keyPathDP, graph.RowCursor)) int64 {
		before, _ := paged.CursorCounts()
		cur := paged.Cursor()
		var dp keyPathDP
		solve(&dp, cur)
		cur.Close()
		after, _ := paged.CursorCounts()
		return after - before
	}
	fused := rowsOf(func(dp *keyPathDP, cur graph.RowCursor) { dp.build(cur, srcs, dst, logGood, maxLen) })
	alone := rowsOf(func(dp *keyPathDP, cur graph.RowCursor) {
		for _, s := range srcs {
			dp.path(cur, s, dst, logGood, maxLen)
		}
	})
	if fused != union || alone != sum || fused >= alone {
		t.Fatalf("fused build read %d rows (frontier union %d), per-source solves %d (frontier sum %d)", fused, union, alone, sum)
	}
}
