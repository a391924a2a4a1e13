package extract

import (
	"fmt"
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
	d.build(cur, []graph.NodeID{src}, dst, logGood, reachOf(logGood), maxLen)
	return d.walk(0, dst)
}

// reachOf lists the nodes of finite logGood in ascending order, the reach
// an extraction hands its DP.
func reachOf(logGood []float64) []graph.NodeID {
	var reach []graph.NodeID
	for v, lg := range logGood {
		if lg != math.Inf(-1) {
			reach = append(reach, graph.NodeID(v))
		}
	}
	return reach
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
			nbrs := cur.NeighborIDs(graph.NodeID(u))
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
	for u := 0; u < n; u++ {
		cur := paged.Cursor()
		cur.NeighborIDs(graph.NodeID(u))
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
				dp.build(cur, srcs, dst, logGood, reachOf(logGood), maxLen)
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
	fused := rowsOf(func(dp *keyPathDP, cur graph.RowCursor) { dp.build(cur, srcs, dst, logGood, reachOf(logGood), maxLen) })
	alone := rowsOf(func(dp *keyPathDP, cur graph.RowCursor) {
		for _, s := range srcs {
			dp.path(cur, s, dst, logGood, maxLen)
		}
	})
	if fused != union || alone != sum || fused >= alone {
		t.Fatalf("fused build read %d rows (frontier union %d), per-source solves %d (frontier sum %d)", fused, union, alone, sum)
	}
}

// textbookKeyPath is the key-path DP as written in a textbook, the
// referee of the row order: tables over every level, rows straight from
// the CSR arrays in ascending order, and the smallest-predecessor rule
// spelled out. ties counts the relaxations that matched a level's best
// score from a different predecessor.
func textbookKeyPath(c *graph.CSR, src graph.NodeID, logGood []float64, maxLen int) (score [][]float64, parent [][]int32, ties int) {
	n, negInf := c.N(), math.Inf(-1)
	score, parent = make([][]float64, maxLen+1), make([][]int32, maxLen+1)
	for l := range score {
		score[l], parent[l] = make([]float64, n), make([]int32, n)
		for v := range score[l] {
			score[l][v], parent[l][v] = negInf, -1
		}
	}
	score[0][src] = logGood[src]
	for l := 1; l <= maxLen; l++ {
		for u := 0; u < n; u++ {
			if score[l-1][u] == negInf {
				continue
			}
			for _, v := range c.Adjncy[c.Xadj[u]:c.Xadj[u+1]] {
				if logGood[v] == negInf {
					continue
				}
				cand, p := score[l-1][u]+logGood[v], parent[l][v]
				if cand == score[l][v] && p != int32(u) {
					ties++
				}
				if cand > score[l][v] || cand == score[l][v] && int32(u) < p {
					score[l][v], parent[l][v] = cand, int32(u)
				}
			}
		}
	}
	return score, parent, ties
}

// textbookWalk is walk over the textbook tables: the first best length to
// dst, the parent chain back from it, repeated nodes dropped.
func textbookWalk(score [][]float64, parent [][]int32, src, dst graph.NodeID) []graph.NodeID {
	if src == dst {
		return []graph.NodeID{dst}
	}
	best := -1
	for l := 1; l < len(score); l++ {
		if score[l][dst] > math.Inf(-1) && (best < 0 || score[l][dst] > score[best][dst]) {
			best = l
		}
	}
	if best < 0 {
		return nil
	}
	chain := []graph.NodeID{dst}
	for l, v := best, dst; l >= 1; l-- {
		v = graph.NodeID(parent[l][v])
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

// TestKeyPathDPOrderIndependent: the DP's tables and walks do not depend
// on the order a level visits rows in, nor on its visiting only the
// reachable rows. On tie-heavy fixtures — every goodness drawn from two or
// three values, so equal-score walks are everywhere — builds whose levels
// alternate direction (as the extraction runs them, from either starting
// direction and carried across destinations), run all ascending or all
// descending, each match the textbook DP, which scans every row: every
// level's parents, the last level's scores (-Inf and -1 included for the
// nodes no walk reaches), the best length and score to the destination,
// and the walk. In memory and paged. Zero-goodness blocks at both ends of
// the id range make reach start after node 0 and end before node n-1;
// odd trials add a zero-goodness source, which yields no walk; and a
// counting cursor shows no zero-goodness row is ever read.
func TestKeyPathDPOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	negInf := math.Inf(-1)
	for trial := 0; trial < 6; trial++ {
		n := 80 + rng.Intn(200)
		g := randomConnected(rng, n, 2*n+rng.Intn(2*n))
		c := graph.ToCSR(g)
		// Whole numbers add exactly, so walks over the same multiset of
		// goodness values tie bit for bit.
		values := []float64{-1, -2, -3}[:2+trial%2]
		logGood := make([]float64, n)
		for v := range logGood {
			logGood[v] = values[rng.Intn(len(values))]
		}
		for v := 5; v < n; v += 11 {
			logGood[v] = negInf
		}
		lead, tail := 1+rng.Intn(n/8), 1+rng.Intn(n/8)
		for v := range lead {
			logGood[v] = negInf
		}
		for v := n - tail; v < n; v++ {
			logGood[v] = negInf
		}
		maxLen := 4 + rng.Intn(5)
		srcs := make([]graph.NodeID, 1+rng.Intn(maxFusedSources))
		for i := range srcs {
			srcs[i] = graph.NodeID(lead + rng.Intn(n-lead-tail))
			logGood[srcs[i]] = values[0] // every source's frontier spreads
		}
		if trial%2 == 1 {
			// A source inside the leading zero block, its frontier empty
			// from level 0 on, in the group's last slot or a new one.
			srcs = append(srcs[:min(len(srcs), maxFusedSources-1)], graph.NodeID(rng.Intn(lead)))
		}
		reach := reachOf(logGood)
		if reach[0] == 0 || reach[len(reach)-1] == graph.NodeID(n-1) {
			t.Fatalf("trial %d: reach [%d,%d] spans the id range", trial, reach[0], reach[len(reach)-1])
		}
		type want struct {
			score  [][]float64
			parent [][]int32
		}
		wants := make([]want, len(srcs))
		allTies := 0
		for j, src := range srcs {
			score, parent, ties := textbookKeyPath(c, src, logGood, maxLen)
			wants[j], allTies = want{score, parent}, allTies+ties
		}
		if allTies < n {
			t.Fatalf("trial %d: fixture not tie-heavy: %d ties over %d nodes", trial, allTies, n)
		}
		dsts := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), srcs[0], graph.NodeID(rng.Intn(n))}
		modes := map[string]func(l int, dp *keyPathDP) bool{
			"alternating": nil, // the real build: its own direction, carried
			"ascending":   func(int, *keyPathDP) bool { return false },
			"descending":  func(int, *keyPathDP) bool { return true },
		}
		for name, adj := range map[string]graph.Adjacency{"csr": c, "paged": pagedFixture(t, g, 6+rng.Intn(24))} {
			for mode, dir := range modes {
				for _, startDesc := range []bool{false, true} {
					cur := &guardCursor{RowCursor: adj.Cursor(), logGood: logGood}
					dp := keyPathDP{}
					for q, dst := range dsts {
						if dir == nil {
							if q == 0 {
								dp.start(srcs, dst, logGood, maxLen)
								dp.desc = startDesc
							}
							dp.build(cur, srcs, dst, logGood, reach, maxLen)
						} else {
							dp.start(srcs, dst, logGood, maxLen)
							for l := 1; l <= maxLen && len(dp.live) > 0; l++ {
								dp.level(cur, l, dst, logGood, reach, dir(l, &dp) != startDesc)
							}
						}
						tag := func(j int) string {
							return fmt.Sprintf("trial %d %s %s start-desc=%v dst %d source %d", trial, name, mode, startDesc, dst, srcs[j])
						}
						for j, src := range srcs {
							w, tb := wants[j], &dp.tabs[j]
							got := dp.walk(j, dst)
							if wantWalk := textbookWalk(w.score, w.parent, src, dst); !slices.Equal(got, wantWalk) {
								t.Fatalf("%s: walk %v, textbook %v", tag(j), got, wantWalk)
							}
							if src == dst {
								continue
							}
							if logGood[src] == negInf && got != nil {
								t.Fatalf("%s: zero-goodness source walked %v", tag(j), got)
							}
							for l := 1; l <= maxLen; l++ {
								if !slices.Equal(tb.parents[l], w.parent[l]) {
									t.Fatalf("%s: level %d parents differ from the textbook DP", tag(j), l)
								}
							}
							for v := range tb.prev {
								if math.Float64bits(tb.prev[v]) != math.Float64bits(w.score[maxLen][v]) {
									t.Fatalf("%s: last-level score of %d is %v, textbook %v", tag(j), v, tb.prev[v], w.score[maxLen][v])
								}
							}
							bestLen, bestScore := -1, negInf
							for l := 1; l <= maxLen; l++ {
								if w.score[l][dst] > bestScore {
									bestLen, bestScore = l, w.score[l][dst]
								}
							}
							if tb.best != bestLen || math.Float64bits(tb.bestScore) != math.Float64bits(bestScore) {
								t.Fatalf("%s: best length %d score %v, textbook %d %v", tag(j), tb.best, tb.bestScore, bestLen, bestScore)
							}
						}
					}
					cur.Close()
					if cur.rows == 0 || cur.zero != 0 {
						t.Fatalf("trial %d %s %s start-desc=%v: read %d rows, %d of zero goodness", trial, name, mode, startDesc, cur.rows, cur.zero)
					}
				}
			}
		}
	}
}

// guardCursor counts the rows a DP reads through it, and among them the
// rows of zero-goodness nodes, which no walk can pass through.
type guardCursor struct {
	graph.RowCursor
	logGood    []float64
	rows, zero int
}

func (c *guardCursor) NeighborIDs(u graph.NodeID) []graph.NodeID {
	c.rows++
	if c.logGood[u] == math.Inf(-1) {
		c.zero++
	}
	return c.RowCursor.NeighborIDs(u)
}

// TestKeyPathDPPoolHits pins what the elevator order buys a paged
// extraction. The pool holds about three quarters of the Adjncy run, so a
// level that scans the run the same way as the last one is LRU's worst
// case and misses every page; a level that turns around starts on the
// pages the last one left resident and misses only the pages the pool
// cannot hold. Across one multi-destination extraction the misses stay
// within one cold pass plus (adjncyPages − frames) per level, plus the
// rows the induced subgraph reads.
func TestKeyPathDPPoolHits(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n, maxLen, budget = 3000, 10, 40
	g := randomConnected(rng, n, 9000)
	const payload = 252 // 256-byte pages minus CRC
	adjncyPages := storage.RunPages(2*g.NumEdges(), 4, payload)
	frames := adjncyPages * 3 / 4
	s, paged := pagedStoreFixture(t, g, frames)
	s.ResetPoolStats()
	res, err := ConnectionSubgraphAdj(paged, false, nil, []graph.NodeID{0, graph.NodeID(n / 2)},
		Options{Budget: budget, MaxPathLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	if err := paged.Err(); err != nil {
		t.Fatal(err)
	}
	levels := res.Iterations * maxLen // one source group: at most maxLen levels per round
	misses := s.PoolStats().Misses
	bound := uint64(adjncyPages + levels*(adjncyPages-frames) + 4*budget + 8)
	if res.Iterations < 2 || misses > bound {
		t.Fatalf("extraction of %d rounds missed %d pages, want <= %d (%d adjncy pages, %d frames, %d levels)",
			res.Iterations, misses, bound, adjncyPages, frames, levels)
	}
	if pins := s.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned after the extraction", pins)
	}
}
