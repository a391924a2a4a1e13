package extract

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
)

// Options configures connection subgraph extraction.
type Options struct {
	// Budget is the maximum number of nodes in the output subgraph
	// (paper demo: 30 for Fig 5, 200 for Fig 6).
	Budget int
	// RWR tunes the underlying random walks.
	RWR RWROptions
	// Mode selects the goodness combination (default CombineAND, the
	// paper's meeting probability).
	Mode CombineMode
	// K for CombineKSoftAND.
	K int
	// MaxPathLen caps key-path length in the dynamic program (default 10,
	// at most MaxPathLenCap).
	MaxPathLen int
	// StageHook, if set, receives the wall-clock timing of each internal
	// extraction stage ("rwr" solve, "expand" key-path rounds, "induce"
	// subgraph materialization) as it completes. Pure observability: it
	// never changes results, and the server keeps it out of cache keys.
	StageHook func(stage string, start time.Time, d time.Duration)
}

// MaxPathLenCap is the longest key path an extraction may ask for. The DP
// holds a parent row of n entries per level and source, so the length is
// what sizes its memory: (MaxPathLen+1)·4·n bytes per source, 0.4 MB per
// source on the 3k-node demo graph at the cap, where a length of a million
// asked for 12.6 GB.
const MaxPathLenCap = 32

// Normalize validates o and fills zero fields with defaults, rejecting
// explicitly out-of-range RWR parameters and a MaxPathLen above
// MaxPathLenCap. It is idempotent, and the server uses it to canonicalize
// requests before building cache keys, so "budget omitted" and "budget 30"
// share one cache entry.
func (o Options) Normalize() (Options, error) {
	if o.Budget <= 0 {
		o.Budget = 30
	}
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 10
	}
	if o.MaxPathLen > MaxPathLenCap {
		return o, fmt.Errorf("extract: maxPathLen %d exceeds the cap of %d", o.MaxPathLen, MaxPathLenCap)
	}
	if o.Mode != CombineKSoftAND {
		// K only participates in k-softAND scoring; zero it elsewhere so
		// semantically identical requests canonicalize identically.
		o.K = 0
	}
	var err error
	o.RWR, err = o.RWR.Normalize()
	return o, err
}

// Result is an extracted connection subgraph.
type Result struct {
	// Subgraph is the induced subgraph over the chosen nodes, in local
	// coordinates; Nodes maps local ids back to the original graph.
	Subgraph *graph.Graph
	Nodes    []graph.NodeID
	// Sources are the local ids of the query sources inside Subgraph.
	Sources []graph.NodeID
	// Goodness holds the goodness score of each chosen node (local ids).
	Goodness []float64
	// TotalGoodness is the sum of goodness over chosen nodes — the
	// objective the extraction maximizes, used to compare against the
	// pairwise baseline in E9.
	TotalGoodness float64
	// Iterations is the number of destination-expansion rounds performed.
	Iterations int
}

// ConnectionSubgraph extracts a small subgraph that best captures the
// relationship among the source nodes, following the paper's §IV: RWR per
// source, goodness by meeting probability, then iterative key-path
// discovery via dynamic programming until the node budget is filled.
//
// It converts g to CSR form on every call; interactive callers issuing
// repeated queries over one graph hold an Adjacency and call
// ConnectionSubgraphAdj (core.Engine solves on its store's query view).
func ConnectionSubgraph(g *graph.Graph, sources []graph.NodeID, opts Options) (*Result, error) {
	return ConnectionSubgraphAdj(graph.ToCSR(g), g.Directed(), g.Label, sources, opts)
}

// ConnectionSubgraphAdj is the extraction core over any graph.Adjacency —
// the in-memory CSR or a disk-backed paged CSR, which is how out-of-core
// engines answer extraction queries with resident adjacency memory bounded
// by the buffer pool. directed gives the adjacency's edge semantics
// (half-edge pairs are collapsed when false); labelOf, if non-nil, supplies
// node labels for the output subgraph. The algorithm reads the adjacency
// identically for every implementation, so results are bit-identical
// across backends over the same graph.
func ConnectionSubgraphAdj(adj graph.Adjacency, directed bool, labelOf func(graph.NodeID) string, sources []graph.NodeID, opts Options) (*Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("extract: need at least one source")
	}
	n := adj.N()
	seen := map[graph.NodeID]bool{}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("extract: source %d out of range (n=%d)", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("extract: duplicate source %d", s)
		}
		seen[s] = true
	}
	if opts.Budget < len(sources) {
		return nil, fmt.Errorf("extract: budget %d below source count %d", opts.Budget, len(sources))
	}
	// stage brackets one instrumented phase; a nil hook costs one branch.
	stage := func(name string, begin time.Time) {
		if opts.StageHook != nil {
			opts.StageHook(name, begin, time.Since(begin))
		}
	}
	begin := time.Now()
	rwr, err := RWRMulti(adj, sources, opts.RWR)
	if err != nil {
		return nil, err
	}
	goodness := Goodness(rwr, opts.Mode, opts.K)
	stage("rwr", begin)

	// logGood[v] = log goodness, -Inf for zero; the DP maximizes the sum
	// of log-goodness over path nodes (product of goodness). reach holds
	// the nodes of positive goodness in ascending order, the only ones a
	// path can pass through and so the only rows the DP visits.
	logGood := make([]float64, n)
	reach := make([]graph.NodeID, 0, n)
	for v := range logGood {
		if goodness[v] > 0 {
			logGood[v] = math.Log(goodness[v])
			reach = append(reach, graph.NodeID(v))
		} else {
			logGood[v] = math.Inf(-1)
		}
	}

	inH := make([]bool, n)
	var chosen []graph.NodeID
	add := func(u graph.NodeID) {
		if !inH[u] {
			inH[u] = true
			chosen = append(chosen, u)
		}
	}
	for _, s := range sources {
		add(s)
	}

	// Destinations come from the pruned top-k queue: one O(n log budget)
	// selection replaces a full O(n) rescan per destination, yielding the
	// same sequence the naive argmax scan would (see destQueue).
	begin = time.Now()
	dests := newDestQueue(goodness, opts.Budget)
	iterations := 0
	// expand runs the key-path rounds on one row cursor and one set of DP
	// tables. It is a function of its own so the cursor is closed — pins
	// dropped — on the cancellation return as on the normal one, and
	// before graph.Induced reads the backend again.
	expand := func() error {
		cur := adj.Cursor()
		defer cur.Close()
		var dp keyPathDP
		for len(chosen) < opts.Budget {
			// One DP round is milliseconds; polling between rounds lets a
			// timed-out query stop expanding instead of running ~60 more.
			if ctx := opts.RWR.Ctx; ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			pd := dests.nextDest(inH)
			if pd < 0 {
				break // no positive-goodness node remains
			}
			iterations++
			for g := 0; g < len(sources) && len(chosen) < opts.Budget; g += maxFusedSources {
				group := sources[g:min(g+maxFusedSources, len(sources))]
				dp.build(cur, group, pd, logGood, reach, opts.MaxPathLen)
				for j := range group {
					if len(chosen) >= opts.Budget {
						break
					}
					for _, u := range dp.walk(j, pd) {
						if !inH[u] {
							if len(chosen) >= opts.Budget {
								break
							}
							add(u)
						}
					}
				}
			}
			// pd never repeats as a destination (the queue's cursor moved
			// past it), so the loop performs at most budget iterations.
			if !inH[pd] && len(chosen) < opts.Budget {
				add(pd)
			}
		}
		return nil
	}
	if err := expand(); err != nil {
		return nil, err
	}
	stage("expand", begin)

	begin = time.Now()
	sub, mapping := graph.Induced(adj, directed, labelOf, chosen)
	stage("induce", begin)
	res := &Result{Subgraph: sub, Nodes: mapping, Iterations: iterations}
	res.Goodness = make([]float64, len(mapping))
	for i, u := range mapping {
		res.Goodness[i] = goodness[u]
		res.TotalGoodness += goodness[u]
	}
	local := make(map[graph.NodeID]graph.NodeID, len(mapping))
	for i, u := range mapping {
		local[u] = graph.NodeID(i)
	}
	for _, s := range sources {
		res.Sources = append(res.Sources, local[s])
	}
	return res, nil
}

// maxFusedSources caps how many sources' key-path tables one row pass
// fills. Every fused source holds three score rows (prev, next, top) and
// maxLen parent rows of n entries — 64 bytes per node at the default
// maxLen of 10 — so a group of four is 256 bytes per node: 2.4 MB on the
// 9.5k-node bench fixture, 81 MB on the papers' 315k-node DBLP.
// Extractions rarely name more than four sources; one that does runs
// ceil(k/4) passes per level.
const maxFusedSources = 4

// keyPathDP holds the tables of the key-path dynamic program so the ~30
// destination rounds of one extraction reuse them, together with the
// walk-back's buffers. One build fills the tables of a whole group of
// sources for one destination: every level reads each frontier row once
// through the cursor and relaxes it into the table of each source whose
// frontier holds it. A source's frontier is improving: it holds the nodes
// whose score at the last level beats every score they had at an earlier
// one (see relaxLevel). The arithmetic is still one DP per (source,
// destination); what the group shares is the row reads.
//
// desc is the direction of the next level's row pass. It flips after
// every level and carries from build to build, so consecutive passes of
// one extraction always run opposite ways: an elevator scan. On a paged
// cursor a pass then starts on the pages the last pass touched most
// recently, the ones an LRU pool still holds, where a repeated ascending
// scan of a run slightly larger than the pool misses every page.
type keyPathDP struct {
	n, maxLen int            // what the tables are sized for
	tabs      []keyPathTable // [j]: group member j
	live      []*keyPathTable
	desc      bool
	rev, out  []graph.NodeID // walk's parent chain and its result
}

// keyPathTable is one source's share of a build.
type keyPathTable struct {
	prev, next []float64 // score rows of the last and the current level
	top        []float64 // top[u]: u's best score at the levels it was relaxed from
	parents    [][]int32 // parents[l][v]: predecessor of v on the best l-edge walk
	par        []int32   // parents[l] of the current level
	best       int       // length of the best walk to dst; 0 = the source is dst, -1 = none
	bestScore  float64
}

// build runs the dynamic program from every source of srcs (at most
// maxFusedSources) to dst: dp[l][v] = best sum of log-goodness over the
// nodes of a walk of exactly l edges from the source to v, at most maxLen
// edges, and parents[l][v] the smallest predecessor that achieves it.
// That holds exactly wherever dp[l][v] beats dp[k][v] for every k < l,
// which is every entry a best length or a walk reads; the entries of a
// node that did not improve may hold less (see relaxLevel). reach lists
// the nodes of positive goodness in ascending order; no walk passes
// through any other node, so only their rows are candidates. Rows are read
// through cur once per level for the whole group, ids only (the DP never
// looks at edge weights), the reachable nodes in ascending order on one
// level and descending on the next (see keyPathDP); the tie rule in relax
// makes the tables independent of the order. walk then returns each
// source's path.
func (d *keyPathDP) build(cur graph.RowCursor, srcs []graph.NodeID, dst graph.NodeID, logGood []float64, reach []graph.NodeID, maxLen int) {
	d.start(srcs, dst, logGood, maxLen)
	for l := 1; l <= maxLen && len(d.live) > 0; l++ {
		d.level(cur, l, dst, logGood, reach, d.desc)
		d.desc = !d.desc
	}
}

// start sizes the tables for maxLen levels and seeds level 0 of every
// source of srcs that is not dst itself; no node has a top score yet.
func (d *keyPathDP) start(srcs []graph.NodeID, dst graph.NodeID, logGood []float64, maxLen int) {
	n := len(logGood)
	negInf := math.Inf(-1)
	if d.n != n || d.maxLen != maxLen {
		*d = keyPathDP{n: n, maxLen: maxLen}
	}
	for len(d.tabs) < len(srcs) {
		t := keyPathTable{prev: make([]float64, n), next: make([]float64, n), top: make([]float64, n), parents: make([][]int32, maxLen+1)}
		for l := 1; l <= maxLen; l++ {
			t.parents[l] = make([]int32, n)
		}
		d.tabs = append(d.tabs, t)
	}
	d.live = d.live[:0]
	for j, src := range srcs {
		t := &d.tabs[j]
		t.best, t.bestScore = -1, negInf
		if src == dst {
			t.best = 0 // the path is dst alone; no DP
			continue
		}
		d.live = append(d.live, t)
		prev, top := t.prev, t.top
		for i := range prev {
			prev[i], top[i] = negInf, negInf
		}
		prev[src] = logGood[src]
	}
}

// level fills level l of every live table from the nodes that improved at
// level l-1, visiting the rows of reach in descending node order when
// desc, and keeps the first best length to dst. Every entry of next and
// par is reset, not only reach's, so the tables hold -Inf and -1 for every
// node no relaxed row reaches.
func (d *keyPathDP) level(cur graph.RowCursor, l int, dst graph.NodeID, logGood []float64, reach []graph.NodeID, desc bool) {
	negInf := math.Inf(-1)
	for _, t := range d.live {
		par, next := t.parents[l], t.next
		for i := range par {
			par[i] = -1
		}
		for i := range next {
			next[i] = negInf
		}
		t.par = par
	}
	relaxLevel(cur, d.live, logGood, reach, desc)
	for _, t := range d.live {
		if t.next[dst] > t.bestScore {
			t.bestScore = t.next[dst]
			t.best = l
		}
		t.prev, t.next = t.next, t.prev
	}
}

// relaxLevel runs one level of the dynamic program for every table of
// live, in order, reading each row some table's frontier holds once
// through cur: the reachable nodes in ascending order, or descending when
// desc. A frontier never holds any other node: a score leaves -Inf only
// at a source of positive goodness or by a relax step onto a node of
// positive goodness.
//
// A table relaxes u only if its score at the last level, prev[u], is
// higher than top[u], the best score u had at any earlier level, and then
// raises top[u] to it. That is exact whatever the sign of logGood: when a
// shorter walk reaches u with a score at least as high, every extension
// of the longer walk is matched or beaten, at a shorter length, by the
// same extension of the shorter one. So the entries that improve on every
// earlier level are those of the full DP, every predecessor that achieves
// such an entry improved at its own level, and best, bestScore and every
// walk — which read only improving entries — are unchanged; an entry no
// walk reads may stay lower. An unreached node has prev and top both -Inf
// and is skipped. It is a function of its own to keep the row loop's
// working set in registers; inside level's frame the compiler spills the
// loop counters.
func relaxLevel(cur graph.RowCursor, live []*keyPathTable, logGood []float64, reach []graph.NodeID, desc bool) {
	m := len(reach)
	for i := 0; i < m; i++ {
		k := i
		if desc {
			k = m - 1 - i
		}
		u := reach[k]
		// Row u is read when the first table whose frontier holds it
		// comes up, and then serves the rest.
		var nbrs []graph.NodeID
		read := false
		for _, t := range live {
			pu := t.prev[u]
			if pu <= t.top[u] {
				continue // u did not improve: a shorter walk dominates
			}
			t.top[u] = pu
			if !read {
				nbrs, read = cur.NeighborIDs(u), true
			}
			t.relax(nbrs, logGood, pu, u)
		}
	}
}

// relax offers every neighbor v of u the walk that reaches u with score pu
// and then steps to v. A tie goes to the smaller predecessor, whichever
// order the level visits rows in, so par[v] is the smallest u achieving
// next[v] and the tables do not depend on the pass direction.
//
// A neighbor of zero goodness needs no test of its own. next and par are
// reset together to -Inf and -1, and while next[v] is -Inf a write needs
// cand > -Inf or u < par[v] == -1, which no node id is: so next[v] == -Inf
// implies par[v] == -1. The -Inf candidate of a zero-goodness neighbor
// then passes neither cand > next[v] nor u < par[v], and v keeps -Inf and
// -1.
//
// Kept out of line: inlined into relaxLevel's loop nest the compiler
// spills this loop's own counter to the stack, which costs the in-memory
// DP a fifth of its time.
//
//go:noinline
func (t *keyPathTable) relax(nbrs []graph.NodeID, logGood []float64, pu float64, u graph.NodeID) {
	next, par := t.next, t.par
	for _, v := range nbrs {
		cand := pu + logGood[v]
		// cand > nv || cand == nv && u < par[v], written so the common
		// case, a candidate below the best, takes one comparison.
		if nv := next[v]; cand >= nv && (cand > nv || u < par[v]) {
			next[v] = cand
			par[v] = u
		}
	}
}

// walk returns the node sequence src..dst of the last build's group member
// j, or nil if dst is unreachable from it within maxLen. The slice is the
// DP's own buffer, valid until the next walk.
func (d *keyPathDP) walk(j int, dst graph.NodeID) []graph.NodeID {
	t := &d.tabs[j]
	if t.best < 0 {
		return nil
	}
	// Walk parents back from dst at the best length. A parent chain may
	// revisit nodes (walks, not simple paths); dedup while preserving
	// order.
	rev := append(d.rev[:0], dst)
	v := dst
	for l := t.best; l >= 1; l-- {
		p := t.parents[l][v]
		if p < 0 {
			break
		}
		v = graph.NodeID(p)
		rev = append(rev, v)
	}
	// At most maxLen+1 nodes: a scan of out beats any per-node table.
	out := d.out[:0]
	for i := len(rev) - 1; i >= 0; i-- {
		if !slices.Contains(out, rev[i]) {
			out = append(out, rev[i])
		}
	}
	d.rev, d.out = rev, out
	return out
}

// TopGoodness returns the k nodes with the highest goodness (ties by id),
// a crude alternative to path-based extraction used in ablation tests.
func TopGoodness(goodness []float64, k int) []graph.NodeID {
	ids := make([]graph.NodeID, len(goodness))
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		if goodness[ids[i]] != goodness[ids[j]] {
			return goodness[ids[i]] > goodness[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
