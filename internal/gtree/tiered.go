package gtree

// Adaptive hot/cold tiering: TieredCSR wraps a PagedCSR with a bounded
// set of pinned in-memory CSR *fragments* — contiguous node ranges whose
// xadj/adjncy/edgew slices were decoded once from the page runs — and
// routes every Adjacency read through a fragment when the node is
// resident, falling through to the paged path otherwise. Results are
// bit-identical either way: a fragment is a verbatim decode of the same
// file bytes the paged path would read, so promotion and demotion are
// pure execution decisions, invisible to every kernel.
//
// The promoter is query-amortized: after a query finishes, the engine
// calls Promote (QueryView.Promote), which ranks the buffer pool's
// decayed per-page-bucket heat counters (storage.BufferPool.HotRanges),
// maps the hottest Adjncy page runs back to node ranges, decodes them
// into fragments, and publishes a new immutable fragment snapshot via an
// atomic pointer swap. A byte budget strictly bounds resident fragment
// bytes; the least-recently-used fragments are demoted to make room.
// Because snapshots are immutable and swapped atomically, a promotion
// racing an in-flight sweep is safe by construction: the sweep keeps
// reading the snapshot it loaded at its start, and a demoted fragment
// stays valid for readers that still hold it.
//
// A paged fault while decoding a candidate fragment bumps the shared
// fault epoch (exactly like any other paged read fault) and aborts the
// promotion before the torn fragment is ever published.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

const (
	// tierEdgeBytes is the in-memory cost of one fragment half-edge
	// (4-byte id + 8-byte weight); fragment xadj entries cost 4 bytes per
	// node. The budget is accounted against these, not against the
	// (smaller) on-disk encoding.
	tierEdgeBytes = 12

	// tierMaxHotRanges bounds how many hot page buckets one promotion
	// pass considers, keeping Promote cheap enough to run after every
	// query.
	tierMaxHotRanges = 16
)

// tierFrag is one pinned in-memory CSR fragment: the verbatim decode of
// node range [lo,hi). xadj holds the hi-lo+1 absolute half-edge offsets
// Xadj[lo..hi]; ids and ws hold the half-edges [elo, Xadj[hi]) with elo =
// Xadj[lo]. All slices are immutable after construction.
type tierFrag struct {
	lo, hi  int
	elo     int
	xadj    []int32
	ids     []graph.NodeID
	ws      []float64
	bytes   int64
	lastUse atomic.Uint64 // logical clock of the last read through this fragment
}

// tierSnapshot is an immutable, lo-sorted, non-overlapping fragment set,
// published by atomic pointer swap so readers never lock.
type tierSnapshot struct {
	frags []*tierFrag
	bytes int64
}

// next returns the first fragment with hi > u (the fragment covering u,
// or the nearest one above it), nil if none.
//
//gmine:hotpath
func (s *tierSnapshot) next(u int) *tierFrag {
	frags := s.frags
	lo, hi := 0, len(frags)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if frags[mid].hi <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(frags) {
		return frags[lo]
	}
	return nil
}

// tierState is the per-file tiering state, shared by every TieredCSR
// over one store (it lives on pagedShared, like the fault epoch and the
// weighted-degree cache).
type tierState struct {
	budget atomic.Int64                 // fragment byte budget; 0 = tiering off
	snap   atomic.Pointer[tierSnapshot] // current fragment set (nil = empty)
	clock  atomic.Uint64                // logical access clock driving LRU demotion

	// mu serializes promotion/demotion (the only snapshot writers).
	// Readers go through the atomic pointer and never take it.
	mu sync.Mutex

	// base is the store's shared-pool PagedCSR view; the promoter decodes
	// fragments through it so promotion I/O is never charged to a query's
	// counted view. pool is the store's buffer pool, the heat source.
	base *PagedCSR
	pool *storage.BufferPool

	hits, misses          atomic.Uint64 // rows served from fragments vs paged
	promotions, demotions atomic.Uint64
}

// lookup returns the fragment covering node u, nil when u is cold (or
// out of range — the paged fallthrough owns bounds faults).
//
//gmine:hotpath
func (ts *tierState) lookup(u int) *tierFrag {
	snap := ts.snap.Load()
	if snap == nil {
		return nil
	}
	if f := snap.next(u); f != nil && f.lo <= u {
		return f
	}
	return nil
}

// touch stamps f with the next logical access time (LRU bookkeeping).
//
//gmine:hotpath
func (ts *tierState) touch(f *tierFrag) {
	f.lastUse.Store(ts.clock.Add(1))
}

// setBudget sets the fragment byte budget. Shrinking below the resident
// bytes demotes LRU fragments at the next promotion pass; 0 demotes
// everything immediately and disables tiering.
func (ts *tierState) setBudget(bytes int64) {
	ts.budget.Store(bytes)
	if bytes > 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old := ts.snap.Load(); old != nil && len(old.frags) > 0 {
		ts.demotions.Add(uint64(len(old.frags)))
		ts.snap.Store(&tierSnapshot{})
	}
}

// TierInfo snapshots the tiering state for observability (/healthz,
// session info, /metrics): resident fragments and bytes, the configured
// budget, and the promotion/demotion/hit/miss totals.
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
	if snap := ts.snap.Load(); snap != nil {
		ti.Fragments = len(snap.frags)
		ti.Bytes = snap.bytes
	}
	return ti
}

// tierQueryCounters is the per-query slice of the tier counters: one
// instance per engine query, so the trace's tier.hits/tier.misses name
// this query's routing, not the session's.
type tierQueryCounters struct {
	hits, misses atomic.Int64
}

// TieredCSR is the tiered graph.Adjacency: a PagedCSR (normally one
// query's view, see Store.QueryView) plus the store's shared fragment set.
// Node reads and sweep sub-ranges covered by a resident fragment are
// served from memory; everything else falls through to the paged path.
// Both paths return bit-identical data, so TieredCSR satisfies every
// Adjacency contract the PagedCSR does — including the fault epoch,
// which it shares (and exposes) unchanged.
//
// Cursor reads keep the paged cursor's append-into-caller semantics on
// fragment hits too (elements are copied out, never aliased): one cursor
// alternates between fragment hits and paged misses on the same buffer
// pair, and handing out an aliased fragment row that a later paged append
// would grow in place could scribble over the fragment. Sweep callbacks,
// whose rows are only valid during the callback, do alias fragment
// storage — same contract as every other EdgeSweeper.
type TieredCSR struct {
	paged *PagedCSR
	ts    *tierState
	qc    *tierQueryCounters
}

var _ graph.Adjacency = (*TieredCSR)(nil)

// Tiered returns a tiered view over c sharing the store's fragment set
// and carrying fresh per-query tier counters. The fragment set routes
// reads only while a budget is set (Store.SetTierBudget); with budget 0
// the view is a plain delegating wrapper.
func (c *PagedCSR) Tiered() *TieredCSR {
	return &TieredCSR{paged: c, ts: &c.sh.tier, qc: &tierQueryCounters{}}
}

// QueryCounts returns the fragment hit/miss row counts of this view's
// query.
func (t *TieredCSR) QueryCounts() (hits, misses int64) {
	return t.qc.hits.Load(), t.qc.misses.Load()
}

// N returns the number of nodes.
func (t *TieredCSR) N() int { return t.paged.n }

// HalfEdges returns the number of stored half-edges.
func (t *TieredCSR) HalfEdges() int { return t.paged.halfEdges }

// Directed reports the persisted graph's edge semantics.
func (t *TieredCSR) Directed() bool { return t.paged.directed }

// Faults exposes the shared fault epoch (see PagedCSR.Faults).
func (t *TieredCSR) Faults() uint64 { return t.paged.Faults() }

// ErrSince reports the latest fault after epoch, shared with the paged
// view.
func (t *TieredCSR) ErrSince(epoch uint64) error { return t.paged.ErrSince(epoch) }

// Err returns the most recent latched fault, if any.
func (t *TieredCSR) Err() error { return t.paged.Err() }

// Degree returns the number of stored half-edges at u, from the
// fragment's xadj when resident.
func (t *TieredCSR) Degree(u graph.NodeID) int {
	if f := t.ts.lookup(int(u)); f != nil {
		i := int(u) - f.lo
		return int(f.xadj[i+1] - f.xadj[i])
	}
	return t.paged.Degree(u)
}

// fragNeighbors serves u's row from a resident fragment: one lookup, the
// LRU stamp and hit counters, and a copy-out into the caller's buffers
// (see the type comment for why fragment rows are copied, not aliased).
// hit=false — nothing appended, nothing counted — when u is cold. ids and
// weights are copied only into the buffers the mode names.
//
//gmine:hotpath
func (t *TieredCSR) fragNeighbors(u graph.NodeID, mode sweepMode, nbrBuf []graph.NodeID, wBuf []float64) (_ []graph.NodeID, _ []float64, hit bool) {
	f := t.ts.lookup(int(u))
	if f == nil {
		return nbrBuf, wBuf, false
	}
	t.ts.touch(f)
	t.ts.hits.Add(1)
	t.qc.hits.Add(1)
	i := int(u) - f.lo
	elo, ehi := int(f.xadj[i])-f.elo, int(f.xadj[i+1])-f.elo
	m := ehi - elo
	if m == 0 {
		return nbrBuf, wBuf, true
	}
	nb := len(nbrBuf)
	nbrBuf = slices.Grow(nbrBuf, m)[:nb+m]
	copy(nbrBuf[nb:], f.ids[elo:ehi])
	if mode&sweepW != 0 {
		wb := len(wBuf)
		wBuf = slices.Grow(wBuf, m)[:wb+m]
		copy(wBuf[wb:], f.ws[elo:ehi])
	}
	return nbrBuf, wBuf, true
}

// miss charges one row to the paged path's counters.
//
//gmine:hotpath
func (t *TieredCSR) miss() {
	t.ts.misses.Add(1)
	t.qc.misses.Add(1)
}

// tieredCursor is the graph.RowCursor of a TieredCSR: fragment hits copy
// the row out (fragNeighbors), because the caller's next read may be a
// paged miss appending into the same buffers and a fragment can be
// demoted while the cursor is open, and misses go to a paged cursor,
// whose sticky pins then cover the cold stretches between fragments.
type tieredCursor struct {
	t  *TieredCSR
	pc pagedCursor
}

// Cursor opens a row cursor over t for the calling goroutine
// (graph.Adjacency). Close it on every path.
func (t *TieredCSR) Cursor() graph.RowCursor {
	tc := &tieredCursor{t: t}
	tc.pc.open(t.paged)
	return tc
}

//gmine:hotpath
func (tc *tieredCursor) Neighbors(u graph.NodeID, nbrBuf []graph.NodeID, wBuf []float64) ([]graph.NodeID, []float64) {
	nbrBuf, wBuf, hit := tc.t.fragNeighbors(u, sweepIDs|sweepW, nbrBuf, wBuf)
	if hit {
		return nbrBuf, wBuf
	}
	tc.t.miss()
	return tc.pc.Neighbors(u, nbrBuf, wBuf)
}

//gmine:hotpath
func (tc *tieredCursor) NeighborIDs(u graph.NodeID, nbrBuf []graph.NodeID) []graph.NodeID {
	nbrBuf, _, hit := tc.t.fragNeighbors(u, sweepIDs, nbrBuf, nil)
	if hit {
		return nbrBuf
	}
	tc.t.miss()
	return tc.pc.NeighborIDs(u, nbrBuf)
}

func (tc *tieredCursor) Close() { tc.pc.Close() }

// WeightedDegrees returns the shared per-node weighted degree table
// (cached on the underlying file, identical across views and tiers).
func (t *TieredCSR) WeightedDegrees() []float64 { return t.paged.WeightedDegrees() }

// SweepEdges implements graph.EdgeSweeper: resident sub-ranges are
// emitted straight from fragment storage (rows alias the fragment,
// valid only during the callback — the usual sweep contract), cold
// sub-ranges run the paged blocked sweep. The fragment snapshot is
// loaded once at sweep start, so a promotion racing the sweep changes
// nothing mid-pass.
func (t *TieredCSR) SweepEdges(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool) error {
	return t.sweepTiered(int(lo), int(hi), sweepIDs|sweepW, func(u int, ids []graph.NodeID, ws []float64) bool {
		return fn(graph.NodeID(u), ids, ws)
	})
}

// SweepNeighborIDs implements graph.NeighborIDSweeper, same routing as
// SweepEdges without the weights.
func (t *TieredCSR) SweepNeighborIDs(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID) bool) error {
	return t.sweepTiered(int(lo), int(hi), sweepIDs, func(u int, ids []graph.NodeID, _ []float64) bool {
		return fn(graph.NodeID(u), ids)
	})
}

// sweepTiered walks [lo,hi) alternating between fragment emission and
// the paged blocked sweep, charging emitted rows to the tier counters.
func (t *TieredCSR) sweepTiered(lo, hi int, mode sweepMode, emit func(u int, ids []graph.NodeID, ws []float64) bool) error {
	c := t.paged
	if lo < 0 || hi < lo || hi > c.n {
		return c.sweepFault(fmt.Errorf("gtree: sweep range [%d,%d) out of bounds (n=%d)", lo, hi, c.n))
	}
	snap := t.ts.snap.Load()
	var fragRows, pagedRows int64
	defer func() {
		if fragRows > 0 {
			t.ts.hits.Add(uint64(fragRows))
			t.qc.hits.Add(fragRows)
		}
		if pagedRows > 0 {
			t.ts.misses.Add(uint64(pagedRows))
			t.qc.misses.Add(pagedRows)
		}
	}()
	if snap == nil || len(snap.frags) == 0 {
		pagedRows = int64(hi - lo) // approximate on early stop; trace-only
		return c.sweep(lo, hi, mode, emit)
	}
	stopped := false
	pagedEmit := func(u int, ids []graph.NodeID, ws []float64) bool {
		pagedRows++
		if !emit(u, ids, ws) {
			stopped = true
			return false
		}
		return true
	}
	cur := lo
	for cur < hi {
		// Same per-chunk cancellation poll the paged sweep runs — fragment
		// emission is memory-speed, but a long resident stretch must not
		// outlive its query's deadline either.
		if err := c.canceled(); err != nil {
			return err
		}
		f := snap.next(cur)
		if f == nil || f.lo >= hi {
			// Cold tail: no fragment intersects [cur,hi).
			return c.sweep(cur, hi, mode, pagedEmit)
		}
		if f.lo > cur {
			if err := c.sweep(cur, f.lo, mode, pagedEmit); err != nil {
				return err
			}
			if stopped {
				return nil
			}
			cur = f.lo
		}
		end := f.hi
		if end > hi {
			end = hi
		}
		t.ts.touch(f)
		rows, ok := sweepFrag(f, cur, end, mode, emit)
		fragRows += rows
		if !ok {
			return nil
		}
		cur = end
	}
	return nil
}

// sweepFrag emits nodes [lo,hi) of fragment f. Rows are cap-clamped
// subslices of the fragment's immutable arrays — valid only during the
// callback, exactly the EdgeSweeper aliasing contract. ok=false reports
// an early stop requested by emit.
//
//gmine:hotpath
func sweepFrag(f *tierFrag, lo, hi int, mode sweepMode, emit func(u int, ids []graph.NodeID, ws []float64) bool) (rows int64, ok bool) {
	for u := lo; u < hi; u++ {
		elo := int(f.xadj[u-f.lo]) - f.elo
		ehi := int(f.xadj[u-f.lo+1]) - f.elo
		var ids []graph.NodeID
		var ws []float64
		if ehi > elo {
			if mode&sweepIDs != 0 {
				ids = f.ids[elo:ehi:ehi]
			}
			if mode&sweepW != 0 {
				ws = f.ws[elo:ehi:ehi]
			}
		}
		rows++
		if !emit(u, ids, ws) {
			return rows, false
		}
	}
	return rows, true
}

// --- Promotion ------------------------------------------------------------

// Promote runs one query-amortized promotion pass: rank the pool's hot
// page buckets, map the ones inside the Adjncy run back to node ranges,
// decode the not-yet-resident ranges into fragments, and publish a new
// snapshot — demoting least-recently-used fragments as needed to keep
// resident bytes within the budget. Returns the number of fragments
// promoted. Concurrent calls don't stack: the pass is skipped when
// another promoter holds the lock, and it is a no-op while the budget is
// 0. A paged read fault while decoding aborts the pass (the fault epoch
// is bumped; nothing torn is ever published).
func (t *TieredCSR) Promote() int { return t.ts.promote() }

func (ts *tierState) promote() int {
	budget := ts.budget.Load()
	if budget <= 0 || ts.base == nil {
		return 0
	}
	if !ts.mu.TryLock() {
		return 0
	}
	defer ts.mu.Unlock()

	c := ts.base
	spans := ts.hotEdgeSpans(c, budget)
	if len(spans) == 0 {
		return 0
	}

	snap := ts.snap.Load()
	var frags []*tierFrag
	var total int64
	if snap != nil {
		frags = append(frags, snap.frags...)
		total = snap.bytes
	}
	promoted, demoted := 0, 0
	for _, sp := range spans {
		lo, hi, ok := edgeSpanNodes(c, sp[0], sp[1])
		if !ok {
			// A probe faulted; the epoch is bumped, abandon the pass.
			break
		}
		for _, gap := range subtractResident(lo, hi, frags) {
			f, err := buildFrag(c, gap[0], gap[1])
			if err != nil {
				// Torn fragment: latch the fault on the shared epoch and
				// abort without publishing it. Fragments completed earlier
				// in the pass are whole and stay eligible below.
				c.setErr(fmt.Errorf("%w: tier promotion: %w", ErrPagedRead, err))
				goto publish
			}
			// LRU demotion keeps resident bytes strictly within budget. A
			// fragment that cannot fit even alone is skipped, never
			// published oversized.
			for total+f.bytes > budget && len(frags) > 0 {
				victim := 0
				for i := 1; i < len(frags); i++ {
					if frags[i].lastUse.Load() < frags[victim].lastUse.Load() {
						victim = i
					}
				}
				total -= frags[victim].bytes
				frags = slices.Delete(frags, victim, victim+1)
				demoted++
			}
			if total+f.bytes > budget {
				continue
			}
			ts.touch(f)
			at := sort.Search(len(frags), func(i int) bool { return frags[i].lo >= f.lo })
			frags = slices.Insert(frags, at, f)
			total += f.bytes
			promoted++
		}
	}
publish:
	if promoted > 0 || demoted > 0 {
		ts.snap.Store(&tierSnapshot{frags: frags, bytes: total})
		ts.promotions.Add(uint64(promoted))
		ts.demotions.Add(uint64(demoted))
	}
	return promoted
}

// hotEdgeSpans maps the pool's hottest page buckets to half-edge spans
// of the Adjncy run (hottest-first page buckets become lo-sorted, merged
// element spans). Buckets outside the Adjncy run — xadj, weight, leaf
// and index pages — are ignored: the id run is the topology-heat proxy,
// and a fragment always carries its ids and weights together anyway.
// Spans are clamped so no single candidate fragment could exceed half
// the budget by edge count alone (hub rows can still outgrow the clamp;
// buildFrag's byte check catches those).
func (ts *tierState) hotEdgeSpans(c *PagedCSR, budget int64) [][2]int {
	hot := ts.pool.HotRanges(tierMaxHotRanges)
	if len(hot) == 0 {
		return nil
	}
	maxEdges := int(budget / 2 / tierEdgeBytes)
	if maxEdges < 1 {
		maxEdges = 1
	}
	var spans [][2]int
	for _, hr := range hot {
		lo, hi, ok := c.adjncy.ElementRange(hr.First, hr.First+storage.PageID(hr.Pages)-1)
		if !ok {
			continue
		}
		if hi-lo > maxEdges {
			hi = lo + maxEdges
		}
		spans = append(spans, [2]int{lo, hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && sp[0] <= merged[n-1][1] {
			if sp[1] > merged[n-1][1] {
				merged[n-1][1] = sp[1]
			}
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// edgeSpanNodes maps a half-edge span [elo,ehi) to the smallest node
// range whose complete rows cover it: the node owning edge elo through
// the first node whose offset reaches ehi. ok=false when a paged offset
// probe faulted (latched on the epoch by EdgeOffset itself).
func edgeSpanNodes(c *PagedCSR, elo, ehi int) (lo, hi int, ok bool) {
	v, ok := searchPagedOffset(c, 0, c.n, elo+1)
	if !ok {
		return 0, 0, false
	}
	lo = v - 1
	if lo < 0 {
		lo = 0
	}
	hi, ok = searchPagedOffset(c, lo+1, c.n, ehi)
	if !ok {
		return 0, 0, false
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi, true
}

// searchPagedOffset binary-searches the smallest u in [lo,hi] with
// Xadj[u] >= target through the paged offset probe.
func searchPagedOffset(c *PagedCSR, lo, hi, target int) (int, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off, ok := c.EdgeOffset(graph.NodeID(mid))
		if !ok {
			return 0, false
		}
		if off < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, true
}

// subtractResident returns the sub-ranges of [lo,hi) not covered by any
// fragment in frags (lo-sorted, non-overlapping).
func subtractResident(lo, hi int, frags []*tierFrag) [][2]int {
	var gaps [][2]int
	cur := lo
	for _, f := range frags {
		if f.hi <= cur {
			continue
		}
		if f.lo >= hi {
			break
		}
		if f.lo > cur {
			gaps = append(gaps, [2]int{cur, f.lo})
		}
		if f.hi > cur {
			cur = f.hi
		}
	}
	if cur < hi {
		gaps = append(gaps, [2]int{cur, hi})
	}
	return gaps
}

// buildFrag decodes node range [lo,hi) from the page runs into a fully
// materialized fragment, reading through the store's shared pool. Every
// byte is decoded and validated before the fragment is returned, so a
// fragment that reaches a snapshot is whole by construction; any read
// error (I/O, CRC, corrupt geometry) aborts with nothing retained.
func buildFrag(c *PagedCSR, lo, hi int) (*tierFrag, error) {
	if lo < 0 || hi <= lo || hi > c.n {
		return nil, fmt.Errorf("gtree: tier fragment range [%d,%d) out of bounds (n=%d)", lo, hi, c.n)
	}
	nx := hi - lo + 1
	raw := make([]byte, nx*4)
	if err := c.xadj.Read(lo, lo+nx, raw); err != nil {
		return nil, err
	}
	xadj := make([]int32, nx)
	for i := range xadj {
		xadj[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		if xadj[i] < 0 || int(xadj[i]) > c.halfEdges || (i > 0 && xadj[i] < xadj[i-1]) {
			return nil, fmt.Errorf("gtree: corrupt CSR xadj in tier fragment [%d,%d)", lo, hi)
		}
	}
	elo, ehi := int(xadj[0]), int(xadj[nx-1])
	m := ehi - elo
	ids := make([]graph.NodeID, m)
	ws := make([]float64, m)
	if m > 0 {
		raw = make([]byte, m*8)
		if err := c.adjncy.Read(elo, ehi, raw[:m*4]); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			ids[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(raw[4*i:])))
		}
		if err := c.edgew.Read(elo, ehi, raw); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return &tierFrag{
		lo: lo, hi: hi, elo: elo, xadj: xadj, ids: ids, ws: ws,
		bytes: int64(4*nx) + int64(m)*tierEdgeBytes,
	}, nil
}
