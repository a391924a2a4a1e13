package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/bench/wire"
)

// workload is one traffic mix and the server configuration it runs
// against. Servers get default flags except the ones named here, so
// auto-sharding, the auto pool quota and default admission are measured as
// shipped.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients: an analyst waits for
	// the picture before the next click. See the workloads table for why
	// the counts differ.
	clients int
	server  wire.ServerConfig
}

// The pool sizes are relative to the 546-page fixture file: 20 pages (4%)
// hold a leaf or two, 76 pages (14%) are far below what a sweep walks, 316
// pages (58%) keep the sweep's working set warm. The tier budget is the
// exception to "smaller than the graph": one promotion pass merges up to
// 16 adjacent hot buckets of 8 pages into a single candidate fragment and
// skips a candidate that does not fit, so on a graph this small a budget
// below the decoded CSR (1.0 MB) leaves the tier empty. 1.25 MiB lets it
// hold the whole graph, which is the tier's best case.
var workloads = []workload{
	{
		name:    "navigate",
		why:     "multi-resolution navigation (scene, tree, labels, leaf metrics) uniform over all communities with a 16-entry result cache: nearly every request misses and no extraction kernel runs",
		clients: 8,
		server:  wire.ServerConfig{Disk: true, PoolPages: 20, CacheEntries: 16},
	},
	{
		name:    "compute-mem",
		why:     "distinct one- and two-source extractions and whole-graph analyses on a memory session: kernel CPU with storage idle and a result cache that cannot hit",
		clients: 2,
		server:  wire.ServerConfig{},
	},
	{
		name:    "compute-paged",
		why:     "the compute-mem request list on a paged session whose pool is 14% of the file: reads, checksums, pool eviction and page-run decode do most of the work",
		clients: 2,
		server:  wire.ServerConfig{Disk: true, PoolPages: 76},
	},
	{
		name:    "session-skewed",
		why:     "analyst sessions returning to Zipf-popular topics (search, zoom, extract, refine, revisit): result cache, tiered reads and the warm pool, all bypassed by compute-*",
		clients: 1,
		server:  wire.ServerConfig{Disk: true, PoolPages: 316, TierBudget: 5 << 18, CacheEntries: 256},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serveArgs are the `gmine serve` flags of this workload over fx.
func (w workload) serveArgs(fx fixtureFiles) []string {
	var args []string
	if w.server.Disk {
		args = append(args, "-tree", fx.tree)
	} else {
		args = append(args, "-in", fx.edges, "-k", strconv.Itoa(fixtureK),
			"-levels", strconv.Itoa(fixtureLevels), "-seed", fmt.Sprint(fx.seed))
	}
	if w.server.PoolPages > 0 {
		args = append(args, "-pool", strconv.Itoa(w.server.PoolPages))
	}
	if w.server.TierBudget > 0 {
		args = append(args, "-tierbudget", fmt.Sprint(w.server.TierBudget))
	}
	if w.server.CacheEntries > 0 {
		args = append(args, "-cache", strconv.Itoa(w.server.CacheEntries))
	}
	return args
}

// community is one row of GET /tree's listing.
type community struct {
	ID       int  `json:"id"`
	Parent   int  `json:"parent"`
	Level    int  `json:"level"`
	Size     int  `json:"size"`
	Children int  `json:"children"`
	Leaf     bool `json:"leaf"`
}

// treeFacts is the hierarchy shape as the server reports it.
type treeFacts struct {
	communities []community // index = id
	perLevel    []int
	leaves      []int
}

// facts is everything a generator may use: the fixture file's own content,
// the hierarchy shape, and (for sessions) where an author sits in it.
// Nothing here depends on wall-clock time.
type facts struct {
	g *graphFacts
	t *treeFacts
	// pathOf returns the root-to-leaf community path of a node; the driver
	// answers it with a label lookup against the launched server.
	pathOf func(node int32) ([]int, error)
}

// stream is a deterministic request source. at(c, k) is the k-th request
// of closed-loop client c; seq(i) is the i-th request of the same stream
// walked by a single sequential client (the traced run).
//
// A client's requests come in cycles of fixed composition (so many cheap
// ones, so many expensive ones); endsCycle marks the last request of one.
// The window closes at an arbitrary moment, so a run counts only whole
// cycles: the requests behind every percentile are then the same mix in
// every run, however many a run completes.
type stream interface {
	at(c, k int) (req wire.Request, endsCycle, ok bool)
	seq(i int) (wire.Request, bool)
}

// Tags keep the per-index generators of different workloads on unrelated
// random sequences for the same seed.
const (
	tagNavigate = 0x6e6176
	tagCompute  = 0x636f6d
	tagSession  = 0x736573
	tagPerm     = 0x706572
)

func rngAt(seed int64, tag uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^tag<<32, uint64(i)))
}

// indexed is an endless stream whose i-th request is a pure function of
// (seed, i); client c owns the requests with i mod clients == c, and every
// `cycle` of a client's requests have the same composition.
type indexed struct {
	gen     func(i int) wire.Request
	clients int
	cycle   int
}

func (s indexed) at(c, k int) (wire.Request, bool, bool) {
	return s.gen(k*s.clients + c), (k+1)%s.cycle == 0, true
}

func (s indexed) seq(i int) (wire.Request, bool) { return s.gen(i), true }

// newStream builds the request stream of a workload. seconds only sizes
// the session list, which has to be materialised because a revisit refers
// to an earlier session.
func newStream(w workload, f *facts, seed int64, seconds int) (stream, error) {
	switch w.name {
	case "navigate":
		return indexed{gen: func(i int) wire.Request { return navRequest(f, seed, i) }, clients: w.clients, cycle: 1}, nil
	case "compute-mem", "compute-paged":
		// One generator for both: the paged run issues exactly the requests
		// the memory run issues, so bodies can be compared byte for byte.
		perm := permutation(len(f.g.giant), seed)
		if len(computePattern)%w.clients != 0 {
			return nil, fmt.Errorf("%s: %d clients do not divide the %d-request pattern", w.name, w.clients, len(computePattern))
		}
		return indexed{gen: func(i int) wire.Request { return computeRequest(f.g, perm, seed, i) },
			clients: w.clients, cycle: len(computePattern) / w.clients}, nil
	case "session-skewed":
		return newSessionStream(f, seed, w.clients, sessionsPerClientSecond*seconds)
	}
	return nil, fmt.Errorf("no generator for workload %q", w.name)
}

func permutation(n int, seed int64) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r := rngAt(seed, tagPerm, 0)
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// --- navigate ---------------------------------------------------------------

// navRequest draws one navigation operation, uniform over all communities:
// 40% scene JSON, 20% scene SVG with grandchildren, 10% tree level
// listing, 20% label search, 10% leaf analysis. The leaf analyses carry a
// per-request sampling seed, so they can never be answered from the cache
// and always page the leaf in; p50 rides the cheap classes and the high
// percentiles ride leaf analysis.
func navRequest(f *facts, seed int64, i int) wire.Request {
	r := rngAt(seed, tagNavigate, i)
	switch x := r.Float64(); {
	case x < 0.40:
		return sceneRequest(f.t, r.IntN(len(f.t.communities)), false)
	case x < 0.60:
		return sceneRequest(f.t, r.IntN(len(f.t.communities)), true)
	case x < 0.70:
		level := r.IntN(len(f.t.perLevel))
		return wire.Request{
			Class: wire.ClassNav, Kind: wire.KindTree, Method: "GET",
			Path: "/tree?level=" + strconv.Itoa(level),
			Want: wire.Want{Level: level, Listed: f.t.perLevel[level]},
		}
	case x < 0.90:
		u := int32(r.IntN(f.g.n))
		for f.g.labels[u] == "" {
			u = int32(r.IntN(f.g.n))
		}
		if r.IntN(2) == 0 {
			return labelExactRequest(f.g, u)
		}
		runes := []rune(f.g.labels[u])
		prefix := string(runes[:min(len(runes), 3+r.IntN(4))])
		return wire.Request{
			Class: wire.ClassNav, Kind: wire.KindLabelPrefix, Method: "GET",
			Path: "/labels?prefix=" + url.QueryEscape(prefix),
			Want: wire.Want{Label: prefix},
		}
	default:
		leaf := f.t.leaves[r.IntN(len(f.t.leaves))]
		s := int64(i) + 1
		return wire.Request{
			Class: wire.ClassNav, Kind: wire.KindLeafAnalysis, Method: "GET",
			Path: fmt.Sprintf("/analysis?community=%d&seed=%d", leaf, s),
			Want: wire.Want{Community: leaf, Size: f.t.communities[leaf].Size, Seed: s},
		}
	}
}

func sceneRequest(t *treeFacts, id int, svg bool) wire.Request {
	c := t.communities[id]
	req := wire.Request{
		Class: wire.ClassNav, Kind: wire.KindScene, Method: "GET",
		Path: "/scene?focus=" + strconv.Itoa(id),
		Want: wire.Want{Community: id, Children: c.Children, Size: c.Size},
	}
	if svg {
		req.Kind = wire.KindSceneSVG
		req.Path += "&format=svg&grandchildren=true"
	}
	return req
}

func labelExactRequest(g *graphFacts, u int32) wire.Request {
	return wire.Request{
		Class: wire.ClassNav, Kind: wire.KindLabelExact, Method: "GET",
		Path: "/labels?q=" + url.QueryEscape(g.labels[u]),
		Want: wire.Want{Label: g.labels[u], Node: u},
	}
}

// --- compute-mem / compute-paged ---------------------------------------------

// warmTopK is the one topk value the lists never use; the warm-up analysis
// takes it so warming fills no cache entry a listed request could hit.
const warmTopK = 1000

// computePattern is the compute list's repeating unit: source counts of
// six consecutive requests, 0 standing for a whole-graph analysis. A one-
// source extraction and the analysis's PageRank take the sharded sweep
// path, a two-source extraction the parallel-across-sources path. Two
// thirds are two-source extractions, so on the memory and on the paged
// backend alike p50 falls well inside that class and p95 inside the one-
// source class, the slowest, whatever the order of the other classes.
var computePattern = [6]int{1, 2, 2, 2, 2, 0}

// computeRequest is request i of the compute list. Extractions have budget
// 30 and sources from the largest component; the first source walks a
// permutation of it, so no two extractions share a source set, and each
// analysis asks for a topk no other listed request uses: the result cache
// cannot hit.
func computeRequest(g *graphFacts, perm []int32, seed int64, i int) wire.Request {
	nsrc := computePattern[i%len(computePattern)]
	if nsrc == 0 {
		topk := 1 + (i/len(computePattern))%(warmTopK-1)
		return wire.Request{
			Class: wire.ClassAnalyze, Kind: wire.KindGraphAnalysis, Method: "GET",
			Path: "/analysis/graph?topk=" + strconv.Itoa(topk),
			Want: wire.Want{TopK: topk},
		}
	}
	r := rngAt(seed, tagCompute, i)
	sources := []int32{g.giant[perm[i%len(perm)]]}
	for len(sources) < nsrc {
		u := g.giant[r.IntN(len(g.giant))]
		if !containsNode(sources, u) {
			sources = append(sources, u)
		}
	}
	return extractRequest(sources, 30)
}

func containsNode(s []int32, u int32) bool {
	for _, v := range s {
		if v == u {
			return true
		}
	}
	return false
}

// extractRestart is the RWR restart probability every listed extraction
// asks for. At the default 0.15 a solve takes about 140 sweeps of the graph
// to converge, at 0.5 about 35: the same work per sweep in every layer, a
// quarter of the time per request, so four times the samples in a window.
// The paged backend needs that to report steady percentiles at all.
const extractRestart = 0.5

func extractRequest(sources []int32, budget int) wire.Request {
	sorted := append([]int32(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ids := make([]string, len(sorted))
	for i, s := range sorted {
		ids[i] = strconv.Itoa(int(s))
	}
	return wire.Request{
		Class: wire.ClassExtract, Kind: wire.KindExtract, Method: "POST",
		Path: "/extract",
		Body: fmt.Sprintf(`{"sources":[%s],"budget":%d,"restart":%g}`, strings.Join(ids, ","), budget, extractRestart),
		Want: wire.Want{Sources: sorted, Budget: budget, Restart: extractRestart},
	}
}

// --- session-skewed -----------------------------------------------------------

const (
	// sessionsPerClientSecond sizes the materialised session list well past
	// what a client can finish: a revisit session takes a few milliseconds,
	// a fresh one most of a second.
	sessionsPerClientSecond = 12
	// topicZipf skews which known topic a session returns to: rank 1 is
	// the client's first topic.
	topicZipf = 1.2
)

// A client alternates between a session on a topic nobody has asked about
// and a session returning to one of its known topics; the pair is its
// cycle. A fresh session's extract and refine miss the result cache and
// its revisit hits; a returning session hits three times. So four of a
// cycle's six extractions are hits: a share of 0.667, inside the asserted
// 0.65..0.75 band at any run length, which keeps p50 on the hit path and
// p95 on the miss path.

// topic is what a session is about: an anchor author, an author within two
// co-authorship hops of them, and the anchor's place in the hierarchy.
type topic struct {
	anchor  int32
	sources []int32
	path    []int
}

// sessionStream materialises every client's sessions as a flat request
// list. Client c owns sessions j with j mod clients == c and only returns
// to its own earlier topics, so a revisit never races the other client's
// first solve of the same topic.
type sessionStream struct {
	perClient [][]wire.Request
	cycleEnd  [][]bool
	inOrder   []wire.Request // sessions in global order, for the sequential pass
	sessions  int
}

func (s *sessionStream) at(c, k int) (wire.Request, bool, bool) {
	if k >= len(s.perClient[c]) {
		return wire.Request{}, false, false
	}
	return s.perClient[c][k], s.cycleEnd[c][k], true
}

func (s *sessionStream) seq(i int) (wire.Request, bool) {
	if i >= len(s.inOrder) {
		return wire.Request{}, false
	}
	return s.inOrder[i], true
}

func newSessionStream(f *facts, seed int64, clients, perClient int) (*sessionStream, error) {
	s := &sessionStream{sessions: perClient * clients,
		perClient: make([][]wire.Request, clients), cycleEnd: make([][]bool, clients)}
	perm := permutation(len(f.g.giant), seed)
	known := make([][]topic, clients)
	for j := 0; j < s.sessions; j++ {
		c := j % clients
		r := rngAt(seed, tagSession, j)
		var tp topic
		fresh := (j/clients)%2 == 0
		if fresh {
			// Anchors walk a permutation, so a fresh topic is new to both
			// clients and its first extraction is a certain miss.
			anchor := f.g.giant[perm[j%len(perm)]]
			path, err := f.pathOf(anchor)
			if err != nil {
				return nil, fmt.Errorf("session %d: %w", j, err)
			}
			tp = topic{anchor: anchor, path: path, sources: nearbySources(f.g, anchor, r)}
			known[c] = append(known[c], tp)
		} else {
			z := rand.NewZipf(r, topicZipf, 1, uint64(len(known[c])-1))
			tp = known[c][z.Uint64()]
		}
		ops := sessionOps(f, tp)
		s.perClient[c] = append(s.perClient[c], ops...)
		ends := make([]bool, len(ops))
		ends[len(ops)-1] = !fresh // the returning session closes the cycle
		s.cycleEnd[c] = append(s.cycleEnd[c], ends...)
		s.inOrder = append(s.inOrder, ops...)
	}
	return s, nil
}

// nearbySources returns the anchor plus one Zipf-chosen author within two
// hops of it (candidates ascending by id). Every topic has two sources, so
// every cycle costs the same kind of solves.
func nearbySources(g *graphFacts, anchor int32, r *rand.Rand) []int32 {
	seen := map[int32]bool{anchor: true}
	var cand []int32
	for _, v := range g.neighbors(anchor) {
		if !seen[v] {
			seen[v] = true
			cand = append(cand, v)
		}
	}
	for _, v := range g.neighbors(anchor) {
		for _, w := range g.neighbors(v) {
			if !seen[w] {
				seen[w] = true
				cand = append(cand, w)
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	z := rand.NewZipf(r, topicZipf, 1, uint64(len(cand)-1))
	return []int32{anchor, cand[z.Uint64()]}
}

// sessionOps is one analyst session on a topic: search the anchor, zoom
// from below the root (where every session already is) to its leaf, then
// extract (budget 30), refine (budget 60) and go back (budget 30 again).
// With three scenes a cycle is 14 requests, so the refine misses are its
// slowest 7%: p95 falls inside that class, not on the edge between the
// budget-30 and the budget-60 misses.
func sessionOps(f *facts, tp topic) []wire.Request {
	ops := []wire.Request{labelExactRequest(f.g, tp.anchor)}
	for _, id := range tp.path[1:] {
		ops = append(ops, sceneRequest(f.t, id, false))
	}
	return append(ops,
		extractRequest(tp.sources, 30),
		extractRequest(tp.sources, 60),
		extractRequest(tp.sources, 30))
}
