package gtree

// Hot/cold tiering: TieredCSR wraps a PagedCSR with an optional in-memory
// copy of the whole CSR section. While the store's tier budget covers the
// decoded CSR (tierCost), the first Promote after a query decodes the
// section once, through the shared view's paged blocked sweep, into a
// graph.CSR and publishes it with one atomic pointer store; from then on
// tiered sweeps and cursors read that CSR. Below the budget nothing is
// promoted and every read pages. Results are bit-identical either way:
// the CSR holds exactly the rows the paged sweep emitted, so promotion
// and demotion are pure execution decisions, invisible to every kernel.
//
// There is no partial tier. A budget either covers the graph or it does
// not, and a cut below the cost demotes the CSR at once. A reader that
// loaded the pointer before a demotion keeps a valid, immutable CSR.
//
// A paged fault while decoding latches on the shared fault epoch (the
// sweep does that, like any other paged read fault) and publishes
// nothing.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// tierEdgeBytes is the in-memory cost of one decoded half-edge (4-byte id
// + 8-byte weight); the decoded Xadj costs 4 bytes per offset. The budget
// is accounted against these, not against the on-disk encoding.
const tierEdgeBytes = 12

// tierCost is the resident size of c's decoded CSR: 4·(n+1) + 12·halfEdges.
func tierCost(c *PagedCSR) int64 {
	return 4*int64(c.n+1) + tierEdgeBytes*int64(c.halfEdges)
}

// tierState is the per-file tiering state, shared by every TieredCSR
// over one store (it lives on pagedShared, like the fault epoch and the
// weighted-degree cache).
type tierState struct {
	budget atomic.Int64              // byte budget; 0 = tiering off
	csr    atomic.Pointer[graph.CSR] // resident decoded CSR, nil = cold

	// mu serializes promotion and demotion (the only csr writers), so a
	// budget cut can never race a decode into publishing after it. Readers
	// go through the atomic pointer and never take it.
	mu sync.Mutex

	// base is the store's shared-pool PagedCSR view; the promoter decodes
	// through it so promotion I/O is never charged to a query's counted
	// view.
	base *PagedCSR

	hits, misses          atomic.Uint64 // rows read from memory vs pages
	promotions, demotions atomic.Uint64
}

// setBudget sets the byte budget. A budget below the cost of the decoded
// CSR (0 included) demotes a resident CSR at once.
func (ts *tierState) setBudget(bytes int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.budget.Store(bytes)
	if bytes < tierCost(ts.base) && ts.csr.Swap(nil) != nil {
		ts.demotions.Add(1)
	}
}

// TierInfo snapshots the tiering state for observability (/healthz,
// session info, /metrics): the configured budget, the resident bytes and
// fragment count (0 or 1: the whole CSR or nothing), and the
// promotion/demotion/hit/miss totals.
type TierInfo struct {
	Budget     int64  `json:"budget"`
	Bytes      int64  `json:"bytes"`
	Fragments  int    `json:"fragments"`
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
}

func (ts *tierState) info() TierInfo {
	ti := TierInfo{
		Budget:     ts.budget.Load(),
		Promotions: ts.promotions.Load(),
		Demotions:  ts.demotions.Load(),
		Hits:       ts.hits.Load(),
		Misses:     ts.misses.Load(),
	}
	if ts.csr.Load() != nil {
		ti.Fragments = 1
		ti.Bytes = tierCost(ts.base)
	}
	return ti
}

// TieredCSR is the tiered graph.Adjacency: a PagedCSR (normally one
// query's view, see Store.QueryView) plus the store's resident CSR, when
// there is one. Both return bit-identical data, so TieredCSR satisfies
// every Adjacency contract the PagedCSR does — including the fault epoch,
// which it shares (and exposes) unchanged.
type TieredCSR struct {
	paged *PagedCSR
	ts    *tierState

	// hits and misses are this view's slice of the tier counters: one view
	// per engine query, so the trace's tier.hits/tier.misses name this
	// query's rows, not the session's.
	hits, misses atomic.Int64
}

var _ graph.Adjacency = (*TieredCSR)(nil)

// Tiered returns a tiered view over c sharing the store's tier state and
// carrying fresh per-query tier counters. With no CSR resident the view
// pages every read.
func (c *PagedCSR) Tiered() *TieredCSR {
	return &TieredCSR{paged: c, ts: &c.sh.tier}
}

// QueryCounts returns the rows this view's query read from memory (hits)
// and from pages (misses).
func (t *TieredCSR) QueryCounts() (hits, misses int64) {
	return t.hits.Load(), t.misses.Load()
}

// count charges rows to the session's and the query's tier counters.
func (t *TieredCSR) count(hit bool, rows int64) {
	if rows <= 0 {
		return
	}
	if hit {
		t.ts.hits.Add(uint64(rows))
		t.hits.Add(rows)
	} else {
		t.ts.misses.Add(uint64(rows))
		t.misses.Add(rows)
	}
}

// N returns the number of nodes.
func (t *TieredCSR) N() int { return t.paged.n }

// HalfEdges returns the number of stored half-edges.
func (t *TieredCSR) HalfEdges() int { return t.paged.halfEdges }

// Faults exposes the shared fault epoch (see PagedCSR.Faults).
func (t *TieredCSR) Faults() uint64 { return t.paged.Faults() }

// ErrSince reports the latest fault after epoch, shared with the paged
// view.
func (t *TieredCSR) ErrSince(epoch uint64) error { return t.paged.ErrSince(epoch) }

// Err returns the most recent latched fault, if any.
func (t *TieredCSR) Err() error { return t.paged.Err() }

// WeightedDegrees returns the shared per-node weighted degree table
// (cached on the underlying file, identical across views and tiers).
func (t *TieredCSR) WeightedDegrees() []float64 { return t.paged.WeightedDegrees() }

// tieredCursor is the graph.RowCursor of a TieredCSR. It picks its
// backend when it opens: with a CSR resident, rows alias it like any
// in-memory CSR's; otherwise every row goes to a paged cursor.
type tieredCursor struct {
	t    *TieredCSR
	mem  *graph.CSR // nil: rows page through pc
	pc   pagedCursor
	rows int64 // rows read from mem, folded into the counters at Close
}

// Cursor opens a row cursor over t for the calling goroutine
// (graph.Adjacency). Close it on every path.
func (t *TieredCSR) Cursor() graph.RowCursor {
	tc := &tieredCursor{t: t, mem: t.ts.csr.Load()}
	if tc.mem == nil {
		tc.pc.open(t.paged)
	}
	return tc
}

// memRow bounds-checks u against the resident CSR and returns its Adjncy
// range; a bad node latches a fault like a paged read does.
//
//gmine:hotpath
func (tc *tieredCursor) memRow(u graph.NodeID) (lo, hi int32, ok bool) {
	if u < 0 || int(u) >= tc.mem.NumNodes {
		tc.t.paged.setErr(fmt.Errorf("gtree: CSR node %d out of range (n=%d)", u, tc.mem.NumNodes))
		return 0, 0, false
	}
	tc.rows++
	return tc.mem.Xadj[u], tc.mem.Xadj[u+1], true
}

//gmine:hotpath
func (tc *tieredCursor) Neighbors(u graph.NodeID, nbrBuf []graph.NodeID, wBuf []float64) ([]graph.NodeID, []float64) {
	if tc.mem == nil {
		return tc.pc.Neighbors(u, nbrBuf, wBuf)
	}
	lo, hi, ok := tc.memRow(u)
	if !ok {
		return nbrBuf, wBuf
	}
	return tc.mem.Adjncy[lo:hi:hi], tc.mem.EdgeW[lo:hi:hi]
}

//gmine:hotpath
func (tc *tieredCursor) NeighborIDs(u graph.NodeID, nbrBuf []graph.NodeID) []graph.NodeID {
	if tc.mem == nil {
		return tc.pc.NeighborIDs(u, nbrBuf)
	}
	lo, hi, ok := tc.memRow(u)
	if !ok {
		return nbrBuf
	}
	return tc.mem.Adjncy[lo:hi:hi]
}

// Close releases the paged cursor's pins and charges the cursor's rows to
// the tier counters. Idempotent.
func (tc *tieredCursor) Close() {
	if tc.mem != nil {
		tc.t.count(true, tc.rows)
		tc.rows = 0
		return
	}
	tc.t.count(false, tc.pc.rows)
	tc.pc.Close()
}

// resident returns the CSR a sweep over [lo,hi) reads, nil when it pages,
// and charges the range's rows to the tier counters (all of them even on
// an early stop; the counts are trace-only). A bad range pages, so the
// paged sweep latches the bounds fault as usual.
func (t *TieredCSR) resident(lo, hi graph.NodeID) *graph.CSR {
	if lo < 0 || hi < lo || int(hi) > t.paged.n {
		return nil
	}
	mem := t.ts.csr.Load()
	t.count(mem != nil, int64(hi-lo))
	return mem
}

// SweepEdges implements graph.EdgeSweeper: the resident CSR's slice walk
// (rows alias it, valid only during the callback — the usual sweep
// contract), else the paged blocked sweep. The backend is picked once, at
// sweep start, so a promotion or demotion racing the sweep changes nothing
// mid-pass. Like any in-memory sweep, a resident one does not poll the
// query's context; the kernels poll it between passes.
func (t *TieredCSR) SweepEdges(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool) error {
	if mem := t.resident(lo, hi); mem != nil {
		return mem.SweepEdges(lo, hi, fn)
	}
	return t.paged.SweepEdges(lo, hi, fn)
}

// SweepNeighborIDs implements graph.NeighborIDSweeper, same routing as
// SweepEdges without the weights.
func (t *TieredCSR) SweepNeighborIDs(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID) bool) error {
	if mem := t.resident(lo, hi); mem != nil {
		return mem.SweepNeighborIDs(lo, hi, fn)
	}
	return t.paged.SweepNeighborIDs(lo, hi, fn)
}

// Promote runs the query-amortized promotion step: when the budget covers
// the decoded CSR and none is resident, decode the CSR section through
// the shared view's paged blocked sweep and publish it. Returns 1 when it
// published, else 0. Concurrent calls don't stack: the step is skipped
// when another promoter or a budget change holds the lock. A paged read
// fault while decoding latches on the fault epoch and publishes nothing.
func (t *TieredCSR) Promote() int { return t.ts.promote() }

func (ts *tierState) promote() int {
	if !ts.mu.TryLock() {
		return 0
	}
	defer ts.mu.Unlock()
	if ts.csr.Load() != nil || ts.budget.Load() < tierCost(ts.base) {
		return 0
	}
	mem, err := decodeCSR(ts.base)
	if err != nil {
		return 0 // latched on the fault epoch by the sweep
	}
	ts.csr.Store(mem)
	ts.promotions.Add(1)
	return 1
}

// decodeCSR reads c's CSR section into memory with one blocked sweep over
// [0,n), so every bounds, checksum and geometry check of that sweep runs
// on the decode too. The arrays hold exactly the rows the sweep emitted.
func decodeCSR(c *PagedCSR) (*graph.CSR, error) {
	mem := &graph.CSR{
		NumNodes: c.n,
		Xadj:     make([]int32, 1, c.n+1),
		Adjncy:   make([]graph.NodeID, 0, c.halfEdges),
		EdgeW:    make([]float64, 0, c.halfEdges),
	}
	err := c.sweep(0, c.n, sweepIDs|sweepW, func(_ int, ids []graph.NodeID, ws []float64) bool {
		mem.Adjncy = append(mem.Adjncy, ids...)
		mem.EdgeW = append(mem.EdgeW, ws...)
		mem.Xadj = append(mem.Xadj, int32(len(mem.Adjncy)))
		return true
	})
	if err != nil {
		return nil, err
	}
	return mem, nil
}
