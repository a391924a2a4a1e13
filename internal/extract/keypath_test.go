package extract

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
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
	// The premise: the DP read the rows of its improving frontier — at
	// each level the nodes whose score beat every shorter walk to them,
	// counted on the textbook DP — several per pinned page (a 252-byte page
	// holds only a handful of these rows' ids), and would have paid at
	// least one pin per row without the cursor.
	score, _, _ := graphtest.NewOracle(g).KeyPath(0, logGood, maxLen)
	var frontier int64
	for l := range maxLen {
		for v := range graph.NodeID(n) {
			if improves(score, l, v) {
				frontier++
			}
		}
	}
	if rows != frontier || uint64(rows) < 3*dpGets {
		t.Fatalf("DP read %d rows (improving frontier %d) for %d pins — contrast premise broken", rows, frontier, dpGets)
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
// the textbook DP finds for that (source, destination) — in memory and
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
		o := graphtest.NewOracle(g)
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
				for j, src := range srcs {
					score, parent, _ := o.KeyPath(src, logGood, maxLen)
					want := graphtest.Walk(score, parent, src, dst)
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
// frontiers one by one. A source's frontier at level l is its improving
// set at level l-1, taken from the textbook DP: the nodes whose best
// (l-1)-edge walk scores higher than every shorter walk to them. Counted
// on the paged cursor's own row counter.
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
	// Source 399 has zero goodness itself: its frontier is empty from level
	// 0 on.
	o := graphtest.NewOracle(g)
	scores := make([][][]float64, len(srcs))
	for j, s := range srcs {
		scores[j], _, _ = o.KeyPath(s, logGood, maxLen)
	}
	var union, sum int64
	for l := 0; l < maxLen; l++ {
		for u := range graph.NodeID(n) {
			in := 0
			for j := range srcs {
				if improves(scores[j], l, u) {
					in++
				}
			}
			sum += int64(in)
			if in > 0 {
				union++
			}
		}
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

// improves reports whether the textbook score of v at level l is higher
// than every score v had at an earlier level. Those are the entries the
// pruned DP holds exactly, and for l < maxLen the rows it relaxes at level
// l+1 (its improving frontier).
func improves(score [][]float64, l int, v graph.NodeID) bool {
	for k := 0; k < l; k++ {
		if score[k][v] >= score[l][v] {
			return false
		}
	}
	return score[l][v] > math.Inf(-1)
}

// TestKeyPathDPOrderIndependent: the DP's tables and walks do not depend
// on the order a level visits rows in, nor on its visiting only the
// reachable rows that improved. On tie-heavy fixtures — every goodness
// drawn from two or three values, so equal-score walks are everywhere —
// builds whose levels alternate direction (as the extraction runs them,
// from either starting direction and carried across destinations), run all
// ascending or all descending, each match the textbook DP, which relaxes
// every row at every level, wherever the pruned DP claims to be exact: at
// every (level, node) whose textbook score is higher than at any earlier
// level, the parent, and at the last level the score; each node's top (its
// best score over the levels it was relaxed from); the best length and
// score to every destination, and the walk. Every other last-level score
// may only be lower than the textbook's, never higher. In memory and
// paged. Zero-goodness blocks at both ends of the id range make reach
// start after node 0 and end before node n-1; odd trials add a
// zero-goodness source, which yields no walk; and a counting cursor shows
// no zero-goodness row is ever read. The tables do not depend on the
// destination: every build leaves each source's first build's parents
// rows at every level, and, where the levels run one by one, takes its
// best length and score from the first build's per-level scores (ROADMAP
// item 17's one build per source).
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
			score, parent, ties := graphtest.NewOracle(g).KeyPath(src, logGood, maxLen)
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
					// Each source's first build (for a destination other
					// than itself) keeps its parents rows and, where the
					// levels run one by one, its per-level scores.
					firstPar := make([][][]int32, len(srcs))
					firstScore := make([][][]float64, len(srcs))
					for q, dst := range dsts {
						var levels [][][]float64
						if dir == nil {
							if q == 0 {
								dp.start(srcs, dst, logGood, maxLen)
								dp.desc = startDesc
							}
							dp.build(cur, srcs, dst, logGood, reach, maxLen)
						} else {
							dp.start(srcs, dst, logGood, maxLen)
							levels = make([][][]float64, len(srcs))
							for j := range levels {
								levels[j] = [][]float64{nil} // level 0; BestLength starts at 1
							}
							for l := 1; l <= maxLen && len(dp.live) > 0; l++ {
								dp.level(cur, l, dst, logGood, reach, dir(l, &dp) != startDesc)
								for j := range levels {
									levels[j] = append(levels[j], slices.Clone(dp.tabs[j].prev))
								}
							}
						}
						tag := func(j int) string {
							return fmt.Sprintf("trial %d %s %s start-desc=%v dst %d source %d", trial, name, mode, startDesc, dst, srcs[j])
						}
						for j, src := range srcs {
							w, tb := wants[j], &dp.tabs[j]
							got := dp.walk(j, dst)
							if wantWalk := graphtest.Walk(w.score, w.parent, src, dst); !slices.Equal(got, wantWalk) {
								t.Fatalf("%s: walk %v, textbook %v", tag(j), got, wantWalk)
							}
							if src == dst {
								continue
							}
							if logGood[src] == negInf && got != nil {
								t.Fatalf("%s: zero-goodness source walked %v", tag(j), got)
							}
							for v := range graph.NodeID(n) {
								for l := 1; l <= maxLen; l++ {
									if improves(w.score, l, v) && tb.parents[l][v] != w.parent[l][v] {
										t.Fatalf("%s: level %d parent of %d is %d, textbook %d", tag(j), l, v, tb.parents[l][v], w.parent[l][v])
									}
								}
								last, want := tb.prev[v], w.score[maxLen][v]
								if improves(w.score, maxLen, v) && math.Float64bits(last) != math.Float64bits(want) || last > want {
									t.Fatalf("%s: last-level score of %d is %v, textbook %v", tag(j), v, last, want)
								}
								top := negInf
								for l := range maxLen {
									top = max(top, w.score[l][v])
								}
								if math.Float64bits(tb.top[v]) != math.Float64bits(top) {
									t.Fatalf("%s: top of %d is %v, textbook %v", tag(j), v, tb.top[v], top)
								}
							}
							bestLen, bestScore := graphtest.BestLength(w.score, dst)
							if tb.best != bestLen || math.Float64bits(tb.bestScore) != math.Float64bits(bestScore) {
								t.Fatalf("%s: best length %d score %v, textbook %d %v", tag(j), tb.best, tb.bestScore, bestLen, bestScore)
							}
							// The tables do not depend on the destination, only
							// the best length does: one build per source could
							// serve every destination of an extraction.
							if firstPar[j] == nil {
								firstPar[j] = make([][]int32, maxLen+1)
								for l := 1; l <= maxLen; l++ {
									firstPar[j][l] = slices.Clone(tb.parents[l])
								}
								if levels != nil {
									firstScore[j] = levels[j]
								}
							}
							for l := 1; l <= maxLen; l++ {
								if !slices.Equal(tb.parents[l], firstPar[j][l]) {
									t.Fatalf("%s: level %d parents differ from the first build's", tag(j), l)
								}
							}
							if firstScore[j] != nil {
								once, onceScore := graphtest.BestLength(firstScore[j], dst)
								if tb.best != once || math.Float64bits(tb.bestScore) != math.Float64bits(onceScore) {
									t.Fatalf("%s: best length %d score %v, the first build's levels give %d %v", tag(j), tb.best, tb.bestScore, once, onceScore)
								}
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

// TestKeyPathPrunedMatchesTextbook is the referee of the improving-frontier
// prune. A level relaxes u only when u's score beats every score it had at
// an earlier level, and that is exact whatever the sign of logGood: a
// shorter walk that reaches u with a score at least as high matches or
// beats, at a shorter length, every extension of the longer one. So for
// every destination the best length, its score and the walk equal the
// textbook DP's bit for bit — in memory and paged, in groups of one to four
// fused sources sharing one set of tables across destinations, on tie-heavy
// goodness drawn from two or three values that include zero and positive
// log-goodness (where walks around a cycle gain score) and about a tenth of
// zero-goodness nodes, with maxLen from 2 to 10.
func TestKeyPathPrunedMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sets := [][]float64{{-1, -2}, {0, -1}, {1, 0, -1}, {0.5, -0.25, -3}}
	walks := 0
	for trial := 0; trial < 16; trial++ {
		values := sets[trial%len(sets)]
		n := 40 + rng.Intn(120)
		g := randomConnected(rng, n, n+rng.Intn(2*n))
		c, o := graph.ToCSR(g), graphtest.NewOracle(g)
		logGood := make([]float64, n)
		for v := range logGood {
			logGood[v] = values[rng.Intn(len(values))]
			if rng.Intn(10) == 0 {
				logGood[v] = math.Inf(-1)
			}
		}
		maxLen := 2 + rng.Intn(9)
		srcs := make([]graph.NodeID, 1+trial%maxFusedSources)
		scores, parents := make([][][]float64, len(srcs)), make([][][]int32, len(srcs))
		for j := range srcs {
			srcs[j] = graph.NodeID(rng.Intn(n))
			scores[j], parents[j], _ = o.KeyPath(srcs[j], logGood, maxLen)
		}
		reach := reachOf(logGood)
		for name, adj := range map[string]graph.Adjacency{"csr": c, "paged": pagedFixture(t, g, 6+rng.Intn(24))} {
			cur := adj.Cursor()
			var dp keyPathDP
			for dst := range graph.NodeID(n) {
				dp.build(cur, srcs, dst, logGood, reach, maxLen)
				for j, src := range srcs {
					tag := fmt.Sprintf("trial %d %s maxLen %d sources %v -> %d, source %d", trial, name, maxLen, srcs, dst, src)
					got, want := dp.walk(j, dst), graphtest.Walk(scores[j], parents[j], src, dst)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: walk %v, textbook %v", tag, got, want)
					}
					walks++
					if src == dst {
						continue
					}
					tb := &dp.tabs[j]
					best, bestScore := graphtest.BestLength(scores[j], dst)
					if tb.best != best || math.Float64bits(tb.bestScore) != math.Float64bits(bestScore) {
						t.Fatalf("%s: best length %d score %v, textbook %d %v", tag, tb.best, tb.bestScore, best, bestScore)
					}
				}
			}
			cur.Close()
		}
	}
	t.Logf("%d walks equal to the textbook DP's", walks)
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
