package gtree

// Hot/cold tiering: the store can hold an in-memory copy of its whole CSR
// section. While the store's tier budget covers the decoded CSR
// (tierCost), the first Promote after a query decodes the section once,
// through the shared view's paged blocked sweep, into a graph.CSR and
// publishes it with one atomic pointer store. Each query picks its tier
// once, when it opens (PagedCSR.Tiered): the resident CSR if one is
// published, else its paged view. Below the budget nothing is promoted
// and every query pages. Results are bit-identical either way: the CSR
// holds exactly the rows the paged sweep emitted, so promotion and
// demotion are pure execution decisions, invisible to every kernel.
//
// There is no partial tier. A budget either covers the graph or it does
// not, and a cut below the cost demotes the CSR at once. A query that
// picked the CSR before a demotion keeps a valid, immutable CSR.
//
// A paged fault while decoding latches on the promoter's own view (the
// store's base view, which no engine query solves on) and publishes
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

// tierState is the per-file tiering state, shared by every view of one
// store (it lives on pagedShared, like the weighted-degree cache).
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

	hits, misses          atomic.Uint64 // tiered views opened on memory vs pages
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
// fragment count (0 or 1: the whole CSR or nothing), the promotion and
// demotion totals, and Hits/Misses, the tiered views — one per query —
// that read from memory and from pages.
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

// TieredCSR is one query's tiered graph.Adjacency: the store's resident
// CSR when one was published as the view opened, else the paged view it
// was opened on. Both return bit-identical rows, so the pick is never
// revisited — a promotion or demotion racing the query changes nothing
// mid-solve. Like any in-memory sweep, a resident one does not poll the
// query's context; the kernels poll it between passes.
type TieredCSR struct {
	graph.Adjacency
	ts *tierState
}

// Tiered returns a tiered view over c: it reads the resident CSR if there
// is one, and c otherwise. The pick is counted on the store's tier hits
// (memory) or misses (pages).
func (c *PagedCSR) Tiered() *TieredCSR {
	ts := &c.sh.tier
	if mem := ts.csr.Load(); mem != nil {
		ts.hits.Add(1)
		return &TieredCSR{Adjacency: mem, ts: ts}
	}
	ts.misses.Add(1)
	return &TieredCSR{Adjacency: c, ts: ts}
}

// resident reports whether the view reads the resident CSR.
func (t *TieredCSR) resident() bool {
	_, mem := t.Adjacency.(*graph.CSR)
	return mem
}

// Promote runs the query-amortized promotion step: when the budget covers
// the decoded CSR and none is resident, decode the CSR section through
// the shared view's paged blocked sweep and publish it. Returns 1 when it
// published, else 0. Concurrent calls don't stack: the step is skipped
// when another promoter or a budget change holds the lock. A paged read
// fault or an out-of-range neighbour id while decoding latches on the
// store's base view and publishes nothing.
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
		return 0 // latched on the base view
	}
	ts.csr.Store(mem)
	ts.promotions.Add(1)
	return 1
}

// decodeCSR reads c's CSR section into memory with one blocked sweep over
// [0,n), so every bounds, checksum and geometry check of that sweep runs
// on the decode too. It also rejects any neighbour id outside [0,n): a
// resident CSR is read through the bare in-memory cursor, which trusts its
// ids, so they are checked once here instead of on every row read. The
// arrays hold exactly the rows the sweep emitted.
func decodeCSR(c *PagedCSR) (*graph.CSR, error) {
	mem := &graph.CSR{
		NumNodes: c.n,
		Xadj:     make([]int32, 1, c.n+1),
		Adjncy:   make([]graph.NodeID, 0, c.halfEdges),
		EdgeW:    make([]float64, 0, c.halfEdges),
	}
	var bad error
	err := c.sweep(0, c.n, sweepIDs|sweepW, func(u int, ids []graph.NodeID, ws []float64) bool {
		for _, v := range ids {
			if v < 0 || int(v) >= c.n {
				bad = c.fault(fmt.Errorf("gtree: corrupt CSR adjncy: node %d lists neighbour %d (n=%d)", u, v, c.n))
				return false
			}
		}
		mem.Adjncy = append(mem.Adjncy, ids...)
		mem.EdgeW = append(mem.EdgeW, ws...)
		mem.Xadj = append(mem.Xadj, int32(len(mem.Adjncy)))
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	return mem, nil
}
