package gtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Single-file G-Tree layout (all blobs via the storage blob layer):
//
//	superblock meta: "GTRE" u32 version | k | levels | numNodes |
//	                 topologyPage | connPage | labelPage | graphNodes
//	topology blob:   per node: parent, level, size, memberPage,
//	                 internalCount, internalWeight, childCount, children...
//	conn blob:       count, then (a, b, count, weight) entries
//	label blob:      count, then (label, graphNode, leaf) sorted by label
//	leaf blobs:      per leaf: memberCount, members (graph ids), edgeCount,
//	                 (localU, localV, weight) intra-community edges
//
// Each label is stored once, in the label index: a leaf's labels are read
// from there when the leaf is loaded.
//
// Internal tree nodes and connectivity stay resident (they are small and
// every interaction needs them); leaf blobs, the label index and the full
// graph's CSR section are read on demand through the buffer pool, the
// paper's "nodes are transferred to main memory only when necessary".
//
// The paged CSR section holds the source graph's Xadj, Adjncy, EdgeW and
// NodeW arrays written as fixed-stride page runs (see storage.WriteRun),
// located by six superblock fields after graphNodes (flags, half-edge
// count, four run page ids). A store can therefore answer whole-graph
// queries — connection-subgraph extraction, PageRank — out of core through
// gtree.PagedCSR, with resident adjacency bounded by the buffer pool.
// Version 1 files, written before the CSR section existed, and version 2
// files, whose leaf blobs held a second copy of every label, are refused
// at open with a pointer to `gmine build`.

const (
	fileMagic   = 0x47545245 // "GTRE"
	fileVersion = 3

	csrFlagDirected = 1 << 0
)

// Save writes the tree and the graph it was built on — c, its edge
// semantics and labelOf, its labels — to a single page file at path (see
// SaveTo), crash-safely: an existing file at path is replaced only by a
// complete, synced new one (storage.ReplaceFile).
func Save(t *Tree, c *graph.CSR, directed bool, labelOf func(graph.NodeID) string, path string, pageSize int) error {
	return storage.ReplaceFile(path, func(f storage.File) error {
		return SaveTo(t, c, directed, labelOf, f, pageSize)
	})
}

// SaveTo writes the tree, its leaf subgraphs, the label index and the
// paged CSR section of the graph c (directed says how c stores edges,
// labelOf gives its labels) into f, an empty File, then syncs and closes
// it; any write, sync or close error is returned. Every leaf of t must
// carry its members, as a tree from Build does. pageSize 0 selects the
// storage default.
func SaveTo(t *Tree, c *graph.CSR, directed bool, labelOf func(graph.NodeID) string, f storage.File, pageSize int) (err error) {
	p, err := storage.CreateWith(f, pageSize)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}()

	// Leaf blobs first so topology can reference their pages.
	memberPages := make(map[TreeID]uint32)
	leafOf := make([]TreeID, c.N())
	for i := range t.nodes {
		n := &t.nodes[i]
		if !n.IsLeaf() {
			continue
		}
		if n.Members == nil {
			return fmt.Errorf("gtree: Save needs every leaf's members; leaf %d has none", n.ID)
		}
		for _, u := range n.Members {
			if u < 0 || int(u) >= len(leafOf) {
				return fmt.Errorf("gtree: leaf %d holds node %d, graph has %d", n.ID, u, len(leafOf))
			}
			leafOf[u] = n.ID
		}
		sub, _ := graph.Induced(c, directed, nil, n.Members)
		pg, err := storage.WriteBlob(p, encodeLeaf(sub, n.Members))
		if err != nil {
			return fmt.Errorf("gtree: writing leaf %d: %w", n.ID, err)
		}
		memberPages[n.ID] = uint32(pg)
	}

	var topo encoder
	topo.u32(uint32(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		topo.i32(int32(n.Parent))
		topo.u32(uint32(n.Level))
		topo.u32(uint32(n.Size))
		topo.u32(memberPages[n.ID])
		topo.u32(uint32(n.InternalCount))
		topo.f64(n.InternalWeight)
		topo.u32(uint32(len(n.Children)))
		for _, c := range n.Children {
			topo.i32(int32(c))
		}
	}
	topoPage, err := storage.WriteBlob(p, topo.b)
	if err != nil {
		return fmt.Errorf("gtree: writing topology: %w", err)
	}

	var conn encoder
	conn.u32(uint32(len(t.conn)))
	t.ConnectedPairs(func(a, b TreeID, s ConnStat) bool {
		conn.i32(int32(a))
		conn.i32(int32(b))
		conn.u32(uint32(s.Count))
		conn.f64(s.Weight)
		return true
	})
	connPage, err := storage.WriteBlob(p, conn.b)
	if err != nil {
		return fmt.Errorf("gtree: writing connectivity: %w", err)
	}

	labelPage, err := writeLabelIndex(p, labelOf, leafOf)
	if err != nil {
		return fmt.Errorf("gtree: writing label index: %w", err)
	}

	csrPages, err := writeCSRSection(p, c)
	if err != nil {
		return fmt.Errorf("gtree: writing CSR section: %w", err)
	}

	var meta encoder
	meta.u32(fileMagic)
	meta.u32(fileVersion)
	meta.u32(uint32(t.K))
	meta.u32(uint32(t.Levels))
	meta.u32(uint32(len(t.nodes)))
	meta.u32(uint32(topoPage))
	meta.u32(uint32(connPage))
	meta.u32(uint32(labelPage))
	meta.u32(uint32(c.N()))
	var flags uint32
	if directed {
		flags |= csrFlagDirected
	}
	meta.u32(flags)
	meta.u32(uint32(c.HalfEdges()))
	for _, pg := range csrPages {
		meta.u32(uint32(pg))
	}
	return p.SetMeta(meta.b)
}

// writeCSRSection persists c's arrays as four fixed-stride page runs and
// returns their first pages (xadj, adjncy, edgew, nodew).
func writeCSRSection(p *storage.Pager, c *graph.CSR) ([4]storage.PageID, error) {
	var pages [4]storage.PageID
	// Cap at MaxInt32, not MaxUint32: Xadj offsets are int32, so anything
	// past 2^31-1 would save "fine" and then wrap negative on every read.
	if uint64(c.HalfEdges()) > math.MaxInt32 {
		return pages, fmt.Errorf("graph has %d half-edges, format caps at %d", c.HalfEdges(), int32(math.MaxInt32))
	}
	var err error
	if pages[0], err = storage.WriteRun(p, encodeI32Run(c.Xadj), 4); err != nil {
		return pages, err
	}
	if pages[1], err = storage.WriteRun(p, encodeI32Run(c.Adjncy), 4); err != nil {
		return pages, err
	}
	if pages[2], err = storage.WriteRun(p, encodeF64Run(c.EdgeW), 8); err != nil {
		return pages, err
	}
	pages[3], err = storage.WriteRun(p, encodeI32Run(c.NodeW), 4)
	return pages, err
}

func encodeI32Run(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func encodeF64Run(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// encodeLeaf serializes one leaf community: its members, then the edges of
// sub, the subgraph graph.Induced makes of them, in local coordinates and
// in the order Induced added them, so decodeLeaf's AddEdge calls rebuild
// every adjacency list of sub entry for entry. Induced adds an undirected
// edge once, from the endpoint with the lower graph id, and it sits in the
// lists of both: the copy in the other endpoint's list is skipped here.
func encodeLeaf(sub *graph.Graph, members []graph.NodeID) []byte {
	var e encoder
	e.u32(uint32(len(members)))
	for _, u := range members {
		e.i32(int32(u))
	}
	e.u32(uint32(sub.NumEdges()))
	for lu, u := range members {
		for _, ne := range sub.Neighbors(graph.NodeID(lu)) {
			if !sub.Directed() && members[ne.To] < u {
				continue
			}
			e.i32(int32(lu))
			e.i32(ne.To)
			e.f64(ne.Weight)
		}
	}
	return e.b
}

// decodeLeaf rebuilds a leaf subgraph, unlabeled. Returns the local graph
// and the member mapping local->original.
func decodeLeaf(blob []byte, directed bool) (*graph.Graph, []graph.NodeID, error) {
	d := decoder{b: blob}
	n := d.count(4) // 4 bytes per member id (the edges follow)
	if d.err != nil {
		return nil, nil, d.err
	}
	members := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		members[i] = graph.NodeID(d.i32())
	}
	sub := graph.NewWithNodes(n, directed)
	m := d.count(16) // 4+4+8 bytes per edge
	if d.err != nil {
		return nil, nil, d.err
	}
	for i := 0; i < m; i++ {
		u := d.i32()
		v := d.i32()
		w := d.f64()
		if d.err != nil {
			return nil, nil, d.err
		}
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("gtree: leaf edge %d-%d out of range (n=%d)", u, v, n)
		}
		// Reject weights the graph model disallows (Validate requires
		// finite, non-negative weights): a CRC collision or hand-edited
		// file must not smuggle them into the kernels.
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, nil, fmt.Errorf("gtree: leaf edge %d-%d has invalid weight %g", u, v, w)
		}
		sub.AddEdge(graph.NodeID(u), graph.NodeID(v), w)
	}
	return sub, members, d.err
}

// labelEntry is one label-index record.
type labelEntry struct {
	Label string
	Node  graph.NodeID
	Leaf  TreeID
}

// writeLabelIndex writes the label index: every labeled node (labelOf
// gives "" for the rest) with its leaf.
func writeLabelIndex(p *storage.Pager, labelOf func(graph.NodeID) string, leafOf []TreeID) (storage.PageID, error) {
	var entries []labelEntry
	for u, leaf := range leafOf {
		if l := labelOf(graph.NodeID(u)); l != "" {
			entries = append(entries, labelEntry{Label: l, Node: graph.NodeID(u), Leaf: leaf})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Label != entries[j].Label {
			return entries[i].Label < entries[j].Label
		}
		return entries[i].Node < entries[j].Node
	})
	var e encoder
	e.u32(uint32(len(entries)))
	for _, le := range entries {
		e.str(le.Label)
		e.i32(int32(le.Node))
		e.i32(int32(le.Leaf))
	}
	return storage.WriteBlob(p, e.b)
}

// Store is a G-Tree opened from its single file. Topology and connectivity
// are resident; leaf subgraphs and the label index load on demand through
// the buffer pool.
type Store struct {
	tree       *Tree
	pager      *storage.Pager
	pool       *storage.BufferPool
	labelPage  storage.PageID
	graphNodes int

	// CSR section.
	directed  bool
	halfEdges int
	csrPages  [4]storage.PageID // xadj, adjncy, edgew, nodew

	csrOnce sync.Once
	csr     *PagedCSR
	csrErr  error

	mu     sync.Mutex
	labels []labelEntry // lazily loaded
	// byNode is the label index by node id ("" when unlabeled), published
	// once by PreloadLabels and read without a lock: every leaf load and
	// every annotated result reads it.
	byNode atomic.Pointer[[]string]
}

// OpenFile opens a persisted G-Tree. poolPages bounds the buffer pool (0
// selects 256 pages).
func OpenFile(path string, poolPages int) (*Store, error) {
	return OpenFileWrapped(path, poolPages, nil)
}

// OpenFileWrapped is OpenFile with an optional wrapper interposed over the
// pager's backing file — the chaos-serving seam: a storage.FaultInjector
// slid in here exercises the whole retry/fault-latch/breaker stack against
// a live store. nil wrap is OpenFile.
func OpenFileWrapped(path string, poolPages int, wrap func(storage.File) storage.File) (*Store, error) {
	p, err := storage.OpenWrapped(path, true, wrap)
	if err != nil {
		return nil, err
	}
	return openStore(p, path, poolPages)
}

// OpenWith opens a G-Tree held in f — a storage.MemFile, say — taking
// ownership of it: Store.Close closes f. poolPages is as for OpenFile.
func OpenWith(f storage.File, poolPages int) (*Store, error) {
	p, err := storage.OpenWith(f, true)
	if err != nil {
		return nil, err
	}
	return openStore(p, "the file", poolPages)
}

// openStore reads the G-Tree meta, topology and connectivity through p,
// closing p on failure; name identifies the file in errors.
func openStore(p *storage.Pager, name string, poolPages int) (*Store, error) {
	if poolPages <= 0 {
		poolPages = 256
	}
	s := &Store{pager: p, pool: storage.NewBufferPool(p, poolPages)}
	d := decoder{b: p.Meta()}
	if d.u32() != fileMagic {
		p.Close()
		return nil, fmt.Errorf("gtree: not a G-Tree file")
	}
	switch version := d.u32(); version {
	case fileVersion:
	case 1:
		p.Close()
		return nil, fmt.Errorf("gtree: %s is a version 1 G-Tree file, which has no graph CSR section and is no longer supported; rebuild it with `gmine build`", name)
	case 2:
		p.Close()
		return nil, fmt.Errorf("gtree: %s is a version 2 G-Tree file, which keeps a second copy of every label in its leaves and is no longer supported; rebuild it with `gmine build`", name)
	default:
		p.Close()
		return nil, fmt.Errorf("gtree: unsupported version %d", version)
	}
	k := int(d.u32())
	levels := int(d.u32())
	numNodes := int(d.u32())
	topoPage := storage.PageID(d.u32())
	connPage := storage.PageID(d.u32())
	s.labelPage = storage.PageID(d.u32())
	s.graphNodes = int(d.u32())
	s.directed = d.u32()&csrFlagDirected != 0
	s.halfEdges = int(d.u32())
	for i := range s.csrPages {
		s.csrPages[i] = storage.PageID(d.u32())
	}
	if d.err != nil {
		p.Close()
		return nil, d.err
	}
	t := &Tree{K: k, Levels: levels, conn: make(map[connKey]ConnStat)}
	topo, err := storage.ReadBlobDirect(p, topoPage)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("gtree: reading topology: %w", err)
	}
	td := decoder{b: topo}
	got := td.count(32) // at least 32 bytes per node record
	if td.err != nil {
		p.Close()
		return nil, td.err
	}
	if got != numNodes {
		p.Close()
		return nil, fmt.Errorf("gtree: topology holds %d nodes, meta says %d", got, numNodes)
	}
	t.nodes = make([]Node, numNodes)
	for i := 0; i < numNodes; i++ {
		n := &t.nodes[i]
		n.ID = TreeID(i)
		n.Parent = TreeID(td.i32())
		n.Level = int(td.u32())
		n.Size = int(td.u32())
		n.MemberPage = td.u32()
		n.InternalCount = int(td.u32())
		n.InternalWeight = td.f64()
		nc := td.count(4)
		for j := 0; j < nc && td.err == nil; j++ {
			n.Children = append(n.Children, TreeID(td.i32()))
		}
	}
	if td.err != nil {
		p.Close()
		return nil, td.err
	}
	connBlob, err := storage.ReadBlobDirect(p, connPage)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("gtree: reading connectivity: %w", err)
	}
	cd := decoder{b: connBlob}
	nConn := cd.count(20) // 4+4+4+8 bytes per connectivity edge
	for i := 0; i < nConn && cd.err == nil; i++ {
		a := TreeID(cd.i32())
		b := TreeID(cd.i32())
		cnt := int(cd.u32())
		w := cd.f64()
		t.conn[mkConnKey(a, b)] = ConnStat{Count: cnt, Weight: w}
	}
	if cd.err != nil {
		p.Close()
		return nil, cd.err
	}
	s.tree = t
	return s, nil
}

// Tree returns the resident topology+connectivity tree. Leaf membership is
// not loaded; use LoadLeaf.
func (s *Store) Tree() *Tree { return s.tree }

// GraphNodes returns the number of nodes of the original graph.
func (s *Store) GraphNodes() int { return s.graphNodes }

// LoadLeaf reads the subgraph of a leaf community from disk: the induced
// intra-community graph in local coordinates, labeled from the label
// index, and the mapping local -> original graph id. A fault reading the
// leaf's blob or the label index fails the call.
func (s *Store) LoadLeaf(id TreeID) (*graph.Graph, []graph.NodeID, error) {
	if !s.tree.Valid(id) {
		return nil, nil, fmt.Errorf("gtree: invalid community %d", id)
	}
	n := s.tree.Node(id)
	if !n.IsLeaf() {
		return nil, nil, fmt.Errorf("gtree: community %d is not a leaf", id)
	}
	if err := s.PreloadLabels(); err != nil {
		return nil, nil, err
	}
	blob, err := storage.ReadBlob(s.pool, storage.PageID(n.MemberPage))
	if err != nil {
		return nil, nil, fmt.Errorf("gtree: reading leaf %d: %w", id, err)
	}
	sub, members, err := decodeLeaf(blob, s.directed)
	if err != nil {
		return nil, nil, err
	}
	for i, u := range members {
		if l := s.LabelOf(u); l != "" {
			sub.SetLabel(graph.NodeID(i), l)
		}
	}
	return sub, members, nil
}

// Save re-encodes the store into a new G-Tree file at path (see the
// package-level Save), taking everything it writes from the store: the
// graph's CSR from the resident tier or from one decode sweep of the CSR
// section, with the NodeW run as the file holds it; the labels from the
// label index; and each leaf's members from its blob. Saved at the page
// size it was written with, a store's file comes back byte for byte.
func (s *Store) Save(path string, pageSize int) error {
	c, err := s.graphCSR()
	if err != nil {
		return err
	}
	nodes := slices.Clone(s.tree.nodes)
	for i := range nodes {
		if nodes[i].IsLeaf() {
			if _, nodes[i].Members, err = s.LoadLeaf(TreeID(i)); err != nil {
				return err
			}
		}
	}
	t := &Tree{K: s.tree.K, Levels: s.tree.Levels, nodes: nodes, conn: s.tree.conn}
	return Save(t, c, s.directed, s.LabelOf, path, pageSize)
}

// graphCSR returns the store's whole graph as an in-memory CSR: the
// resident tier's arrays when promoted, else one decode sweep's, with the
// NodeW run read from the file.
func (s *Store) graphCSR() (*graph.CSR, error) {
	base, err := s.PagedCSR()
	if err != nil {
		return nil, err
	}
	mem := base.sh.tier.csr.Load()
	if mem == nil {
		if mem, err = decodeCSR(base.view(s.pool, nil)); err != nil {
			return nil, fmt.Errorf("gtree: reading the CSR section: %w", err)
		}
	}
	nodew, err := storage.NewRunReader(s.pool, s.csrPages[3], 4, s.graphNodes)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 4*s.graphNodes)
	var scratch []byte
	if _, err := nodew.Read(0, s.graphNodes, raw, &scratch); err != nil {
		return nil, fmt.Errorf("gtree: reading CSR nodew: %w", err)
	}
	c := &graph.CSR{NumNodes: mem.NumNodes, Xadj: mem.Xadj, Adjncy: mem.Adjncy, EdgeW: mem.EdgeW, NodeW: make([]int32, s.graphNodes)}
	decodeIDs(c.NodeW, raw)
	return c, nil
}

// LabelHit is the result of a label query.
type LabelHit struct {
	Label string
	Node  graph.NodeID
	Leaf  TreeID
	// Path from the root to the leaf holding the node.
	Path []TreeID
}

// FindLabel locates nodes whose label matches exactly. The label index is
// loaded lazily on first use.
func (s *Store) FindLabel(label string) ([]LabelHit, error) {
	if err := s.ensureLabels(); err != nil {
		return nil, err
	}
	i := sort.Search(len(s.labels), func(i int) bool { return s.labels[i].Label >= label })
	var hits []LabelHit
	for ; i < len(s.labels) && s.labels[i].Label == label; i++ {
		le := s.labels[i]
		hits = append(hits, LabelHit{Label: le.Label, Node: le.Node, Leaf: le.Leaf, Path: s.tree.Path(le.Leaf)})
	}
	return hits, nil
}

// SearchLabelPrefix returns up to limit hits whose label starts with
// prefix (limit <= 0 means no limit).
func (s *Store) SearchLabelPrefix(prefix string, limit int) ([]LabelHit, error) {
	if err := s.ensureLabels(); err != nil {
		return nil, err
	}
	i := sort.Search(len(s.labels), func(i int) bool { return s.labels[i].Label >= prefix })
	var hits []LabelHit
	for ; i < len(s.labels) && strings.HasPrefix(s.labels[i].Label, prefix); i++ {
		le := s.labels[i]
		hits = append(hits, LabelHit{Label: le.Label, Node: le.Node, Leaf: le.Leaf, Path: s.tree.Path(le.Leaf)})
		if limit > 0 && len(hits) >= limit {
			break
		}
	}
	return hits, nil
}

func (s *Store) ensureLabels() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.labels != nil {
		return nil
	}
	blob, err := storage.ReadBlob(s.pool, s.labelPage)
	if err != nil {
		return fmt.Errorf("gtree: reading label index: %w", err)
	}
	d := decoder{b: blob}
	n := d.count(12) // at least 4+4+4 bytes per entry
	if d.err != nil {
		return d.err
	}
	entries := make([]labelEntry, 0, n)
	for i := 0; i < n; i++ {
		le := labelEntry{Label: d.str(), Node: graph.NodeID(d.i32()), Leaf: TreeID(d.i32())}
		if d.err != nil {
			return d.err
		}
		entries = append(entries, le)
	}
	if len(entries) == 0 {
		entries = []labelEntry{} // non-nil marks "loaded"
	}
	s.labels = entries
	return nil
}

// Directed reports the persisted graph's edge semantics.
func (s *Store) Directed() bool { return s.directed }

// PagedCSR returns the store's shared disk-backed adjacency, creating it
// on first use (sync.Once-guarded).
// Every view of the store's graph derives from this one and therefore
// shares the store's buffer pool working set. It fails only when the CSR
// section's geometry does not match the file.
func (s *Store) PagedCSR() (*PagedCSR, error) {
	s.csrOnce.Do(func() {
		s.csr, s.csrErr = newPagedCSR(s)
	})
	return s.csr, s.csrErr
}

// Adj returns the store's whole-graph adjacency outside any query: the
// resident tier's CSR while one is promoted, else the shared PagedCSR.
func (s *Store) Adj() (graph.Adjacency, error) {
	csr, err := s.PagedCSR()
	if err != nil {
		return nil, err
	}
	if mem := csr.sh.tier.csr.Load(); mem != nil {
		return mem, nil
	}
	return csr, nil
}

// SetTierBudget sets the hot/cold tiering byte budget of the store's
// paged CSR: while it covers the decoded CSR (4·(n+1) + 12·halfEdges
// bytes), TieredCSR.Promote loads the whole graph into memory; a budget
// below that, or 0, demotes a resident CSR at once. Safe before or after
// the first PagedCSR call and concurrently with queries: each query picks
// its tier once, when it opens, and keeps it. A store whose CSR section
// cannot be opened ignores the knob.
func (s *Store) SetTierBudget(bytes int64) {
	if csr, err := s.PagedCSR(); err == nil {
		csr.sh.tier.setBudget(bytes)
	}
}

// PromoteTier sets the tier budget to exactly the decoded CSR's cost and
// promotes the whole graph now, so the first query already reads it from
// memory. It fails when the CSR section cannot be opened or decoded.
func (s *Store) PromoteTier() error {
	csr, err := s.PagedCSR()
	if err != nil {
		return err
	}
	ts := &csr.sh.tier
	ts.setBudget(tierCost(csr))
	if ts.promote() == 0 && ts.csr.Load() == nil {
		return fmt.Errorf("gtree: promoting the whole-graph tier: %v", ts.base.Err())
	}
	return nil
}

// TierInfo snapshots the tiering state (nil when the CSR section cannot be
// opened or tiering was never configured).
func (s *Store) TierInfo() *TierInfo {
	csr, err := s.PagedCSR()
	if err != nil {
		return nil
	}
	ti := csr.sh.tier.info()
	if ti.Budget == 0 && ti.Promotions == 0 && ti.Demotions == 0 {
		return nil
	}
	return &ti
}

// QueryView is one query's read of the store's graph, opened with
// Store.QueryView: Adj is what the query solves on, Err reports whether
// any of its reads faulted, and Counts what the query has cost so far.
type QueryView struct {
	// Adj is the query's paged view — pinning through the query's counted
	// pool view, with the query's context attached — or, while the store
	// has a tier budget, the TieredCSR picked over it.
	Adj graph.Adjacency

	pager  *storage.Pager
	paged  *PagedCSR
	pool   *storage.CountedPool
	tiered *TieredCSR // nil while tiering is off
	retry0 storage.RetryStats
}

// QueryCounts is what one query cost the store (see QueryView.Counts).
type QueryCounts struct {
	// Pool is the query's own pins: hits, misses, evictions, load waits.
	// Only row cursors pin through the query's view; whole-graph sweeps
	// read the file directly and show up in SweepReads/SweepPages instead.
	Pool storage.Stats
	// Faults is how many of the query's own reads faulted.
	Faults uint64
	// CursorRows and CursorPins are the rows the query's row cursors read
	// and the pins they took.
	CursorRows, CursorPins int64
	// SweepReads and SweepPages are the file reads the query's sweeps —
	// and its build of the store's row-offset table, when it was the first
	// reader — made, and the pages they read, bypassing the pool.
	SweepReads, SweepPages int64
	// Retry is the pager's transient-read recovery delta over the query's
	// window: store-wide, so overlapping queries each see the other's.
	Retry storage.RetryStats
	// Tiered reports whether the query opened a tiered view, and Resident
	// whether that view read the resident CSR instead of pages.
	Tiered, Resident bool
}

// QueryView opens one query's view of the store's graph. Every page the
// query pins goes through a fresh storage.CountedPool and every file read
// of its sweeps is counted on the view, so its counters name this query's
// I/O alone, and the view latches its own faults, so another query's
// fault never fails this one. The view shares the store's pool, offset and
// weighted-degree tables and resident tier with every other view. ctx
// rides the view's sweeps (see PagedCSR.view). Nothing needs closing; call
// Promote once the query is done.
func (s *Store) QueryView(ctx context.Context) (*QueryView, error) {
	base, err := s.PagedCSR()
	if err != nil {
		return nil, err
	}
	pool := s.pool.Counted()
	paged := base.view(pool, ctx)
	v := &QueryView{Adj: paged, pager: s.pager, paged: paged, pool: pool, retry0: s.pager.RetryStats()}
	if base.sh.tier.budget.Load() > 0 {
		v.tiered = paged.Tiered()
		v.Adj = v.tiered
	}
	return v, nil
}

// Err returns the first fault the query's reads latched, or nil.
func (v *QueryView) Err() error { return v.paged.Err() }

// Counts snapshots what the query has cost so far.
func (v *QueryView) Counts() QueryCounts {
	rows, pins := v.paged.CursorCounts()
	reads, pages := v.paged.SweepCounts()
	retry := v.pager.RetryStats()
	return QueryCounts{
		Pool:       v.pool.Stats(),
		Faults:     v.paged.faultCount(),
		CursorRows: rows,
		CursorPins: pins,
		SweepReads: reads,
		SweepPages: pages,
		Retry: storage.RetryStats{
			Retries: retry.Retries - v.retry0.Retries,
			Healed:  retry.Healed - v.retry0.Healed,
			Failed:  retry.Failed - v.retry0.Failed,
		},
		Tiered:   v.tiered != nil,
		Resident: v.tiered != nil && v.tiered.resident(),
	}
}

// Promote runs the tier promoter once the query is done: it loads the
// whole graph into memory when the budget covers it and it is not
// resident yet. A no-op for untiered views.
func (v *QueryView) Promote() {
	if v.tiered != nil {
		v.tiered.Promote()
	}
}

// PreloadLabels loads the label index and builds its node-indexed view,
// surfacing any read fault. Callers that will annotate results through
// LabelOf (which cannot return an error) call this first, so a failed
// index read fails the query instead of silently stripping labels.
func (s *Store) PreloadLabels() error {
	if s.byNode.Load() != nil {
		return nil
	}
	if err := s.ensureLabels(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byNode.Load() == nil {
		byNode := make([]string, s.graphNodes)
		for _, le := range s.labels {
			if le.Node < 0 || int(le.Node) >= len(byNode) {
				return fmt.Errorf("gtree: label index names node %d, the graph has %d", le.Node, len(byNode))
			}
			byNode[le.Node] = le.Label
		}
		s.byNode.Store(&byNode)
	}
	return nil
}

// LabelOf returns the label of graph node u, or "" when the node is
// unlabeled or the label index cannot be read (use PreloadLabels first to
// distinguish the two). The node-indexed view of the label index is built
// lazily on first use (the index itself is sorted by label for the search
// queries).
func (s *Store) LabelOf(u graph.NodeID) string {
	if err := s.PreloadLabels(); err != nil {
		return ""
	}
	if byNode := *s.byNode.Load(); u >= 0 && int(u) < len(byNode) {
		return byNode[u]
	}
	return ""
}

// PoolInfo bundles the buffer-pool counters with its configuration — the
// observability surface for out-of-core behavior, and its wire form on
// /healthz and in per-session info. What one query cost the pool is in
// that query's trace (?trace=1), not here.
type PoolInfo struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// LoadWaits counts page requests that waited for another query's
	// in-flight load of the same page instead of reading it again.
	LoadWaits uint64 `json:"loadWaits"`
	Capacity  int    `json:"capacity"`
	Resident  int    `json:"resident"`
	FilePages uint32 `json:"filePages"`
	// PinnedFrames counts resident frames currently pinned by in-flight
	// queries; a non-zero value on an idle store means a query leaked pins.
	PinnedFrames int `json:"pinnedFrames"`
	// Retry is the pager's transient-read recovery ledger: re-read
	// attempts, reads healed by retry, and reads that exhausted the budget
	// and surfaced as permanent faults.
	Retry storage.RetryStats `json:"retry"`
	// Tier is the hot/cold tiering state — whether the decoded CSR is
	// resident, its bytes against the budget, promotions and demotions, and
	// the queries served from memory (hits) and from pages (misses) — nil
	// while tiering is off (no budget ever set and nothing ever promoted).
	Tier *TierInfo `json:"tier,omitempty"`
}

// PoolInfo snapshots the buffer pool and file size.
func (s *Store) PoolInfo() PoolInfo {
	st := s.pool.Stats()
	return PoolInfo{
		Hits:         st.Hits,
		Misses:       st.Misses,
		Evictions:    st.Evictions,
		LoadWaits:    st.LoadWaits,
		Capacity:     s.pool.Capacity(),
		Resident:     s.pool.Resident(),
		FilePages:    s.pager.NumPages(),
		PinnedFrames: s.pool.PinnedFrames(),
		Retry:        s.pager.RetryStats(),
		Tier:         s.TierInfo(),
	}
}

// RetryStats snapshots the pager's transient-read recovery counters.
func (s *Store) RetryStats() storage.RetryStats { return s.pager.RetryStats() }

// PinnedFrames reports resident buffer-pool frames with live pins (0 when
// every query released cleanly — the cancellation tests' invariant).
func (s *Store) PinnedFrames() int { return s.pool.PinnedFrames() }

// PoolStats returns buffer pool counters (experiment E10).
func (s *Store) PoolStats() storage.Stats { return s.pool.Stats() }

// FilePages returns the total number of pages in the backing file.
func (s *Store) FilePages() uint32 { return s.pager.NumPages() }

// ResetPoolStats zeroes the buffer pool counters.
func (s *Store) ResetPoolStats() { s.pool.ResetStats() }

// Close releases the underlying file.
func (s *Store) Close() error { return s.pager.Close() }
