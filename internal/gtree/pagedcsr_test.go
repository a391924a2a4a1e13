package gtree

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// randomGraph builds a labeled weighted undirected graph for round-trip
// checks.
func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			g.SetLabel(graph.NodeID(i), "node-"+string(rune('a'+i%26))+"-"+string(rune('0'+i%10)))
		}
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		g.AddEdge(u, v, math.Round(rng.Float64()*100)/10+0.1)
	}
	g.Dedup()
	return g
}

func buildAndSave(t *testing.T, g *graph.Graph, pageSize int) string {
	t.Helper()
	tree, err := Build(g, BuildOptions{K: 3, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gtree")
	if err := Save(tree, graph.ToCSR(g), g.Directed(), g.Label, path, pageSize); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPagedCSRRoundTrip checks the persisted graph keeps its edge
// semantics and every label through the node-indexed label view (its rows
// are TestBackends').
func TestPagedCSRRoundTrip(t *testing.T) {
	g := randomGraph(120, 500, 1)
	s, err := OpenFile(buildAndSave(t, g, 256), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if c, err := s.PagedCSR(); err != nil || c.Directed() != g.Directed() {
		t.Fatalf("directedness lost (%v)", err)
	}
	for u := range graph.NodeID(g.NumNodes()) {
		if got := s.LabelOf(u); got != g.Label(u) {
			t.Fatalf("label of %d = %q want %q", u, got, g.Label(u))
		}
	}
}

// TestPagedCSRPoolBounded pins the acceptance criterion: reading the whole
// adjacency with a pool much smaller than the CSR section keeps the
// resident page count within the pool capacity — the engine pages the
// graph, it never loads it. The weighted-degree sweep reads the file
// without pinning a frame; the row cursor's pass pins every page through
// the pool and forces evictions.
func TestPagedCSRPoolBounded(t *testing.T) {
	g := randomGraph(300, 3000, 2)
	path := buildAndSave(t, g, 256)

	const poolPages = 6
	s, err := OpenFile(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	csrPages := 0
	for _, cnt := range []int{c.N() + 1, c.HalfEdges(), c.HalfEdges(), c.N()} {
		csrPages += (cnt*4 + 251) / 252 // stride-4 lower bound per run
	}
	if csrPages <= poolPages {
		t.Fatalf("test graph too small: CSR spans %d pages, pool holds %d", csrPages, poolPages)
	}
	s.ResetPoolStats()
	// Full adjacency pass: the weighted-degree sweep, then every row
	// through a cursor.
	c.WeightedDegrees()
	if reads, _ := c.SweepCounts(); reads == 0 || poolGets(s) != 0 {
		t.Fatalf("weighted-degree sweep made %d file reads and %d pool pins, want some and 0", reads, poolGets(s))
	}
	cur := c.Cursor()
	for u := 0; u < c.N(); u++ {
		cur.Neighbors(graph.NodeID(u))
	}
	cur.Close()
	pi := s.PoolInfo()
	if pi.Resident > pi.Capacity {
		t.Fatalf("resident %d exceeds pool capacity %d", pi.Resident, pi.Capacity)
	}
	if pi.Evictions == 0 {
		t.Fatal("no evictions although the CSR exceeds the pool")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsV1File: a version 1 file, written before the CSR section
// existed, fails at open with an error that says how to rebuild it. Its
// whole superblock is magic, version, then k, levels, numNodes, the
// topology, connectivity and label pages and graphNodes.
func TestOpenRejectsV1File(t *testing.T) { requireRefused(t, 1, 7) }

// TestOpenRejectsV2File: a version 2 file, whose leaf blobs held a second
// copy of every label, fails at open the same way. Its superblock adds
// the CSR flags, the half-edge count and four run pages to version 1's.
func TestOpenRejectsV2File(t *testing.T) { requireRefused(t, 2, 13) }

// requireRefused writes a superblock of the given version with fields
// zero u32s after it, and requires OpenFile to refuse it, naming the
// version and `gmine build`.
func requireRefused(t *testing.T, version uint32, fields int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.gtree")
	p, err := storage.Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var meta encoder
	meta.u32(fileMagic)
	meta.u32(version)
	for range fields {
		meta.u32(0)
	}
	if err := p.SetMeta(meta.b); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path, 16)
	if err == nil {
		s.Close()
		t.Fatalf("version %d file opened", version)
	}
	if want := fmt.Sprintf("version %d", version); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "gmine build") {
		t.Fatalf("error %q does not name the %s and `gmine build`", err, want)
	}
}

// TestPagedCSRFaultEpochs pins the fault model: every query view owns its
// fault latch, so a fault fails exactly the query whose reads hit it. A
// concurrent query's view stays clean, the faulted view keeps its first
// fault however many follow, and a query opened afterwards recovers.
func TestPagedCSRFaultEpochs(t *testing.T) {
	g := randomGraph(40, 120, 4)
	path := buildAndSave(t, g, 256)
	s, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	open := func() *QueryView {
		t.Helper()
		qv, err := s.QueryView(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return qv
	}
	a, b := open(), open() // two queries in flight
	cur := a.Adj.Cursor()
	defer cur.Close()
	if nbrs, _ := cur.Neighbors(graph.NodeID(-1)); nbrs != nil {
		t.Fatal("out-of-range read returned data")
	}
	first := a.Err()
	if first == nil || a.Counts().Faults != 1 {
		t.Fatalf("faulting query latched %d faults (%v), want 1", a.Counts().Faults, first)
	}
	if b.Err() != nil || b.Counts().Faults != 0 {
		t.Fatalf("concurrent query caught another view's fault: %v", b.Err())
	}
	// A second fault counts, but the first one is what the view reports.
	cur.NeighborIDs(graph.NodeID(1 << 20))
	if a.Counts().Faults != 2 || a.Err() != first {
		t.Fatalf("second fault: %d faults, err %v; want 2 and the first kept", a.Counts().Faults, a.Err())
	}
	// A query opened after the fault reads clean.
	c := open()
	want := graph.ToCSR(g)
	cc := c.Adj.Cursor()
	defer cc.Close()
	gn := cc.NeighborIDs(0)
	wn, _ := want.Neighbors(0)
	if len(gn) != len(wn) {
		t.Fatalf("post-fault read broken: %d vs %d nbrs", len(gn), len(wn))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean query after fault reported error: %v", err)
	}
}

// TestDirectedLeafRoundTrip checks saved files rebuild directed leaf
// subgraphs as directed: the persisted directedness flag reaches
// LoadLeaf, matching what a memory-backed tree would induce.
func TestDirectedLeafRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.NewWithNodes(60, true)
	for i := 0; i < 200; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60)), 1)
	}
	g.Dedup()
	tree, err := Build(g, BuildOptions{K: 3, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dir.gtree")
	if err := Save(tree, graph.ToCSR(g), g.Directed(), g.Label, path, 0); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Directed() {
		t.Fatal("directedness flag lost")
	}
	for _, leaf := range s.Tree().Leaves() {
		diskSub, members, err := s.LoadLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if !diskSub.Directed() {
			t.Fatalf("leaf %d decoded undirected from a directed file", leaf)
		}
		memSub, _ := graph.Induced(graph.ToCSR(g), g.Directed(), g.Label, tree.Node(leaf).Members)
		if diskSub.NumEdges() != memSub.NumEdges() || len(members) != memSub.NumNodes() {
			t.Fatalf("leaf %d: %d/%d edges, %d/%d nodes", leaf,
				diskSub.NumEdges(), memSub.NumEdges(), len(members), memSub.NumNodes())
		}
	}
}
