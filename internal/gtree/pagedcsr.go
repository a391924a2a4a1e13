package gtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/storage"
)

// PagedCSR is the disk-backed implementation of graph.Adjacency: the
// persisted CSR section of a G-Tree file read on demand. The row
// offsets (Xadj, 4·(n+1) bytes) are decoded once per store into a
// validated table, the O(N) part that every kernel needs resident anyway;
// the O(E) neighbor ids and weights stay on disk and are read two ways:
//
//   - Whole-graph sweeps (SweepEdges, WeightedDegrees, the tier decode)
//     read the Adjncy and EdgeW runs in file order, a window of pages at a
//     time, straight from the file with one checksummed read per window
//     (storage.RunReader.Read). On a little-endian host, whose layout of
//     ids and weights is the file's encoding, the window's elements land
//     straight in the sweep's decoded id and weight buffers; a big-endian
//     host reads them into a byte buffer and decodes. A sequential scan is what
//     an LRU pool cannot help with, so sweeps pin nothing and leave the
//     pool to the reads that revisit pages.
//   - Row cursors pin the pages they read through the store's buffer pool
//     (a cursor keeps its last page per run pinned between reads), and the
//     pool's LRU keeps a query's working set of rows resident.
//
// So the memory an extraction or PageRank holds for the adjacency is the
// offset table, a few sweep windows and the pool capacity, never the
// graph. This is the paper's single-file claim carried to whole-graph
// mining: the engine pages the graph, it never loads it.
//
// No frame byte outlives its pin. The pool recycles frames in place (see
// storage.BufferPool.Get: the next page loaded into a frame overwrites
// the buffer). The one view of a frame a caller receives is a row cursor's
// NeighborIDs row that lies on one page: it is valid only until the
// cursor's next read or Close, exactly the life of the pin behind it, and
// read-only, since the frame is the pool's shared copy of the page. Every
// other row is decoded into the cursor's own buffers, and leaves and
// labels are copied out (storage.ReadBlob).
//
// Values round-trip the file verbatim (same int32 ids, same float64
// bits, same neighbor order as the in-memory CSR the file was saved
// from), so every kernel produces bit-identical results on either
// backend.
//
// I/O failures (truncated file, CRC mismatch, corrupt offsets) cannot
// surface through the Adjacency method set, so every view latches its
// own: the failing call returns empty data, the view counts the fault and
// keeps the first one's error (Err). Each query reads through its own view
// (Store.QueryView), so the latch answers "did this query read bad
// data?" — core.Engine discards a solve whose view latched — and a fault
// on another view, a concurrent query's or the tier promoter's, never
// touches it.
//
// Views share the store's offset table, weighted-degree table, sweep
// buffers and tier. Each counts its own sweep reads and pins pages through
// its own storage.CountedPool, so one query's I/O is accounted separately
// from concurrent queries'.
type PagedCSR struct {
	n         int
	halfEdges int
	directed  bool
	xadj      *storage.RunReader
	adjncy    *storage.RunReader
	edgew     *storage.RunReader

	// sh is shared between a base PagedCSR and all its query views: the
	// offset and weighted-degree tables, the sweep buffers and the tier
	// are properties of the underlying file, not of the pool view a query
	// pins through.
	sh *pagedShared

	// faults is this view's fault latch, cc the row reads of the cursors
	// closed on it and sc the file reads of its sweeps: one view per query,
	// so all three name this query's reads.
	faults faultLatch
	cc     cursorCounts
	sc     sweepCounts

	// ctx/done carry a query's cooperative cancellation into the blocked
	// sweeps (see view). done caches ctx.Done() so the per-chunk check is
	// one channel poll, never an interface call. nil on the base view and on
	// views whose context cannot be cancelled.
	ctx  context.Context
	done <-chan struct{}
}

type pagedShared struct {
	// xadj is the decoded, validated row-offset table, built on first use
	// and cached only after a fault-free build (see offsets).
	xadjMu sync.Mutex
	xadj   []int32

	wdegMu sync.Mutex
	wdeg   []float64 // cached only after a fault-free build

	// sweeps recycles the block buffers of the edge-centric sweep
	// (*sweepBufs): one set per concurrent sweep, a few tens of KiB each,
	// reused across the O(iterations) sweeps of a power-iteration solve.
	sweeps sync.Pool

	// tier is the hot/cold tiering state (resident CSR, budget, promotion
	// counters) shared by every view of the file. Dormant (budget 0) until
	// Store.SetTierBudget.
	tier tierState
}

// faultLatch is one view's fault record: how many reads faulted, and the
// first fault's error.
type faultLatch struct {
	mu    sync.Mutex
	count uint64
	first error
}

var _ graph.Adjacency = (*PagedCSR)(nil)

// newPagedCSR wires the Xadj, Adjncy and EdgeW run readers over the
// store's pager and buffer pool, validating the section's geometry — the NodeW run's
// too — against the file.
func newPagedCSR(s *Store) (*PagedCSR, error) {
	c := &PagedCSR{n: s.graphNodes, halfEdges: s.halfEdges, directed: s.directed, sh: &pagedShared{}}
	var err error
	if c.xadj, err = storage.NewRunReader(s.pool, s.csrPages[0], 4, s.graphNodes+1); err != nil {
		return nil, fmt.Errorf("gtree: CSR xadj: %w", err)
	}
	if c.adjncy, err = storage.NewRunReader(s.pool, s.csrPages[1], 4, s.halfEdges); err != nil {
		return nil, fmt.Errorf("gtree: CSR adjncy: %w", err)
	}
	if c.edgew, err = storage.NewRunReader(s.pool, s.csrPages[2], 8, s.halfEdges); err != nil {
		return nil, fmt.Errorf("gtree: CSR edgew: %w", err)
	}
	if _, err = storage.NewRunReader(s.pool, s.csrPages[3], 4, s.graphNodes); err != nil {
		return nil, fmt.Errorf("gtree: CSR nodew: %w", err)
	}
	// The tier promoter decodes through the base view, which counts its
	// reads and latches its faults.
	c.sh.tier.base = c
	return c, nil
}

// view returns one query's view of c: its cursors pin pages through p (a
// query's storage.CountedPool), it latches and counts its own faults,
// cursor rows and sweep reads, and its blocked sweeps observe ctx — every
// node-chunk boundary polls for cancellation and aborts the sweep with the
// bare ctx.Err(), which is not latched: nothing is wrong with the file. A
// nil or never-cancellable ctx costs nothing. The view shares c's offset
// and weighted-degree tables, sweep buffers and tier; both stay safe for
// concurrent use.
func (c *PagedCSR) view(p storage.PagePool, ctx context.Context) *PagedCSR {
	v := &PagedCSR{
		n: c.n, halfEdges: c.halfEdges, directed: c.directed, sh: c.sh,
		xadj:   c.xadj,
		adjncy: c.adjncy.WithPool(p),
		edgew:  c.edgew.WithPool(p),
	}
	if ctx != nil && ctx.Done() != nil {
		v.ctx, v.done = ctx, ctx.Done()
	}
	return v
}

// canceled polls the view's context, returning its error once done.
// One non-blocking channel poll — cheap enough for chunk boundaries.
//
//gmine:hotpath
func (c *PagedCSR) canceled() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// N returns the number of nodes.
func (c *PagedCSR) N() int { return c.n }

// HalfEdges returns the number of stored half-edges.
func (c *PagedCSR) HalfEdges() int { return c.halfEdges }

// Directed reports the persisted graph's edge semantics.
func (c *PagedCSR) Directed() bool { return c.directed }

// Err returns the first I/O or corruption fault this view latched, or nil
// if none of its reads ever faulted. A transient fault fails only the
// views that read through it: the next query opens a fresh view and
// re-reads the pages.
func (c *PagedCSR) Err() error {
	c.faults.mu.Lock()
	defer c.faults.mu.Unlock()
	return c.faults.first
}

// faultCount returns how many of this view's reads faulted.
func (c *PagedCSR) faultCount() uint64 {
	c.faults.mu.Lock()
	defer c.faults.mu.Unlock()
	return c.faults.count
}

// fault latches err on the view and returns it.
func (c *PagedCSR) fault(err error) error {
	c.faults.mu.Lock()
	c.faults.count++
	if c.faults.first == nil {
		c.faults.first = err
	}
	c.faults.mu.Unlock()
	return err
}

// --- Row offsets -----------------------------------------------------------

// offsets returns the store's row-offset table Xadj, building it on first
// use with one pool-free read of the Xadj run, charged to c. The table is
// validated once — Xadj[0] == 0, monotone, Xadj[n] == halfEdges — so every
// row range read from it lies inside the half-edge runs and no reader
// checks a row's bounds again. A build that faults (I/O or a table that
// fails validation) latches the error on c and is NOT cached: the next
// reader retries from the file instead of trusting a half-read table.
// Safe for concurrent use; callers must not mutate the result.
func (c *PagedCSR) offsets() ([]int32, error) {
	sh := c.sh
	sh.xadjMu.Lock()
	defer sh.xadjMu.Unlock()
	if sh.xadj != nil {
		return sh.xadj, nil
	}
	raw := make([]byte, 4*(c.n+1))
	var scratch []byte
	pages, err := c.xadj.Read(0, c.n+1, raw, &scratch)
	c.sc.add(pages)
	if err != nil {
		return nil, c.fault(err)
	}
	xadj := make([]int32, c.n+1)
	for i := range xadj {
		xadj[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	if err := validOffsets(xadj, c.halfEdges); err != nil {
		return nil, c.fault(err)
	}
	sh.xadj = xadj
	return xadj, nil
}

// validOffsets checks that xadj is a CSR offset table over halfEdges
// half-edges: it starts at 0, never decreases and ends at halfEdges.
func validOffsets(xadj []int32, halfEdges int) error {
	n := len(xadj) - 1
	if xadj[0] != 0 || int(xadj[n]) != halfEdges {
		return fmt.Errorf("gtree: corrupt CSR xadj: offsets run [%d,%d], want [0,%d]", xadj[0], xadj[n], halfEdges)
	}
	for u := 0; u < n; u++ {
		if xadj[u+1] < xadj[u] {
			return fmt.Errorf("gtree: corrupt CSR xadj at node %d: [%d,%d) of %d half-edges", u, xadj[u], xadj[u+1], halfEdges)
		}
	}
	return nil
}

// decodeIDs decodes len(dst) little-endian int32 node ids from b into
// dst: the Adjncy element decoder of the sweeps and cursors. Callers size
// b for dst; the length test in the loop is what lets the compiler drop
// every bounds check inside it.
//
//gmine:hotpath
func decodeIDs(dst []graph.NodeID, b []byte) {
	for i := range dst {
		if len(b) < 4 {
			return
		}
		dst[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(b)))
		b = b[4:]
	}
}

// decodeF64 decodes len(dst) little-endian float64 bit patterns from b
// into dst: the EdgeW element decoder of the sweeps and cursors, shaped
// like decodeIDs.
//
//gmine:hotpath
func decodeF64(dst []float64, b []byte) {
	for i := range dst {
		if len(b) < 8 {
			return
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}

// --- Row cursor -----------------------------------------------------------

// Run positions inside a pagedCursor's storage.RunCursor.
const (
	curAdjncy = iota
	curEdgeW
)

// cursorCounts accumulates, per view, what its closed cursors read.
type cursorCounts struct {
	rows, pins atomic.Int64
}

// CursorCounts returns the rows read and the pool pins taken by cursors
// closed so far on this view. pins/rows is
// how well sticky pins worked: ~2 per row for one-shot reads, pages/rows
// for an in-order cursor walk.
func (c *PagedCSR) CursorCounts() (rows, pins int64) {
	return c.cc.rows.Load(), c.cc.pins.Load()
}

// pagedCursor is the graph.RowCursor of a PagedCSR view: the store's
// offset table for row bounds, and a storage.RunCursor over the Adjncy and
// EdgeW runs, which keeps the last page of each run pinned between reads
// (EdgeW only once a read asks for weights) and never waits for a frame
// while holding one.
//
// NeighborIDs hands out a row that lies on one page as a view of the
// pinned frame itself (frameIDs), with no decode; the view is valid until
// the next read or Close moves the pin. A row that straddles pages, and
// every Neighbors read, is decoded into buffers the cursor owns —
// Neighbors never aliases, because pinning the EdgeW page may release the
// Adjncy page (the RunCursor drops every pin before it waits). A
// straddling row is read from whichever end's page the cursor already
// holds, so a walk in descending node order pins each page once, as an
// ascending walk does. The cursor never writes into memory a caller
// handed it.
//
// Every read keeps the checks of the one-shot path it replaces: node
// range, run ranges, page checksums (inside the pool's page read), and one
// latched fault per failed read, which returns an empty row.
type pagedCursor struct {
	c    *PagedCSR
	xadj []int32 // the store's offset table; nil until the first row
	runs storage.RunCursor
	rows int64
	ids  []graph.NodeID // decoded rows, reused from read to read
	ws   []float64
}

// Cursor opens a row cursor over c for the calling goroutine
// (graph.Adjacency). Close it on every path.
func (c *PagedCSR) Cursor() graph.RowCursor {
	pc := &pagedCursor{}
	pc.open(c)
	return pc
}

// open binds a zero pagedCursor to c.
func (pc *pagedCursor) open(c *PagedCSR) {
	pc.c = c
	pc.runs.Open(c.adjncy, c.edgew)
}

// Close unpins the cursor's pages and folds its counts into the view's.
//
//gmine:hotpath
func (pc *pagedCursor) Close() {
	pins := pc.runs.Close()
	if pc.rows != 0 {
		pc.c.cc.rows.Add(pc.rows)
		pc.c.cc.pins.Add(int64(pins))
		pc.rows = 0
	}
}

// xrange returns the bounds of u's neighbor range from the offset table,
// fetching the table on the cursor's first row.
//
//gmine:hotpath
func (pc *pagedCursor) xrange(u graph.NodeID) (lo, hi int, ok bool) {
	c := pc.c
	pc.rows++
	if u < 0 || int(u) >= c.n {
		c.fault(fmt.Errorf("gtree: CSR node %d out of range (n=%d)", u, c.n))
		return 0, 0, false
	}
	if pc.xadj == nil {
		xadj, err := c.offsets()
		if err != nil {
			return 0, 0, false // latched by offsets
		}
		pc.xadj = xadj
	}
	return int(pc.xadj[u]), int(pc.xadj[u+1]), true
}

// decode reads the elements [lo,hi) of run k (curAdjncy or curEdgeW) into
// the cursor's buffer for that run, page span by page span. It starts from
// whichever end's page the cursor already holds: a descending walk leaves
// the cursor on the last page of a row that straddles pages, and reading
// that row head first would pin its first page, then its last page again,
// then the first page once more for the next row down.
//
//gmine:hotpath
func (pc *pagedCursor) decode(k, lo, hi int) error {
	n := hi - lo
	if k == curAdjncy {
		if cap(pc.ids) < n {
			pc.ids = make([]graph.NodeID, n)
		}
		pc.ids = pc.ids[:n]
	} else {
		if cap(pc.ws) < n {
			pc.ws = make([]float64, n)
		}
		pc.ws = pc.ws[:n]
	}
	back := pc.runs.Holds(k, hi-1) && !pc.runs.Holds(k, lo)
	per := pc.c.adjncy.PerPage()
	if k == curEdgeW {
		per = pc.c.edgew.PerPage()
	}
	for at, end := lo, hi; at < end; {
		s := at
		if back {
			s = max(at, (end-1)/per*per) // the first element on end-1's page
		}
		b, m, err := pc.runs.Span(k, s, end)
		if err != nil {
			return err
		}
		if k == curAdjncy {
			decodeIDs(pc.ids[s-lo:s-lo+m], b)
		} else {
			decodeF64(pc.ws[s-lo:s-lo+m], b)
		}
		if back {
			end = s
		} else {
			at = s + m
		}
	}
	return nil
}

// NeighborIDs implements graph.RowCursor. A row on one page is the pinned
// frame's bytes viewed as ids; any other row is decoded.
//
//gmine:hotpath
func (pc *pagedCursor) NeighborIDs(u graph.NodeID) []graph.NodeID {
	lo, hi, ok := pc.xrange(u)
	if !ok || hi == lo {
		return nil
	}
	// A row whose last page is held and first is not straddles pages:
	// decode it tail first rather than pin its head here.
	if pc.runs.Holds(curAdjncy, lo) || !pc.runs.Holds(curAdjncy, hi-1) {
		b, m, err := pc.runs.Span(curAdjncy, lo, hi)
		if err != nil {
			pc.c.fault(err)
			return nil
		}
		if m == hi-lo {
			if ids := frameIDs(b); ids != nil {
				return ids
			}
		}
	}
	if err := pc.decode(curAdjncy, lo, hi); err != nil {
		pc.c.fault(err)
		return nil
	}
	n := hi - lo
	return pc.ids[:n:n]
}

// Neighbors implements graph.RowCursor. Both slices are the cursor's own
// decode buffers, never a frame.
//
//gmine:hotpath
func (pc *pagedCursor) Neighbors(u graph.NodeID) ([]graph.NodeID, []float64) {
	lo, hi, ok := pc.xrange(u)
	if !ok || hi == lo {
		return nil, nil
	}
	err := pc.decode(curAdjncy, lo, hi)
	if err == nil {
		err = pc.decode(curEdgeW, lo, hi)
	}
	if err != nil {
		pc.c.fault(err)
		return nil, nil
	}
	n := hi - lo
	return pc.ids[:n:n], pc.ws[:n:n]
}

// nativeLE reports whether this host lays out an int32 little-endian, as
// the file does: the precondition for viewing Adjncy bytes as ids and for
// reading a sweep window straight into its decoded buffers. A variable,
// not a constant, so a test can run the big-endian paths on any host.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// frameIDs views b, little-endian int32 ids in a pinned pool frame, as
// node ids without decoding: the one place a row aliases a frame. The
// view is cap-clamped (cap == len) and shares the frame, so it is valid
// exactly as long as the pin. It returns nil, and the caller decodes, on
// a big-endian host or when b is not 4-byte aligned.
//
//gmine:hotpath
func frameIDs(b []byte) []graph.NodeID {
	p := unsafe.SliceData(b)
	if !nativeLE || len(b) < 4 || uintptr(unsafe.Pointer(p))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*graph.NodeID)(unsafe.Pointer(p)), len(b)/4)
}

// hostBytes views s as its bytes in host order, which on a little-endian
// host is the file's encoding of the same ids or weights: a run read into
// the view fills s with no decode. It returns nil on a big-endian host,
// where the caller reads into a byte buffer and decodes. Alignment is
// inherent: s is a []NodeID or a []float64.
//
//gmine:hotpath
func hostBytes[E graph.NodeID | float64](s []E) []byte {
	if !nativeLE {
		return nil
	}
	var e E
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(e)))
}

// --- Edge-centric blocked sweep -------------------------------------------

// Sweep block size, in half-edges: each window reads this many new
// half-edges of the Adjncy and EdgeW runs — at the default 4KiB page size
// a handful of pages — with one file read per run. Cancellation is polled
// every sweepNodeChunk nodes.
const (
	sweepNodeChunk = 4096 // nodes between cancellation polls
	sweepEdgeChunk = 4096 // new half-edges per Adjncy/EdgeW window read
)

// sweepMode selects which runs a sweep decodes.
type sweepMode uint8

const (
	sweepIDs sweepMode = 1 << iota // decode the Adjncy run
	sweepW                         // decode the EdgeW run
)

// sweepBufs is one sweep's reusable block state: the page scratch the
// window reads land in and the decoded edge window, into which a
// little-endian host copies each window's elements straight out of the
// scratch. raw holds a window's element bytes on the way to their decode,
// and only a big-endian host allocates it.
type sweepBufs struct {
	pages []byte
	raw   []byte // big-endian hosts only
	ids   []graph.NodeID
	ws    []float64
}

// sweepCounts accumulates, per view, the file reads its sweeps and its
// offset-table build made and the pages they read.
type sweepCounts struct {
	reads, pages atomic.Int64
}

// add counts one file read of pages pages (none when a range was
// rejected before reading).
//
//gmine:hotpath
func (sc *sweepCounts) add(pages int) {
	if pages > 0 {
		sc.reads.Add(1)
		sc.pages.Add(int64(pages))
	}
}

// SweepCounts returns the file reads this view's sweeps and offset-table
// build made, and the pages they read. None of them pins the buffer pool.
func (c *PagedCSR) SweepCounts() (reads, pages int64) {
	return c.sc.reads.Load(), c.sc.pages.Load()
}

// SweepEdges implements graph.EdgeSweeper: it emits every node in [lo,hi)
// with its full neighbor row, walking the Adjncy and EdgeW runs in page
// order. Where reading node by node costs the buffer pool O(n)
// pin/unpin round-trips per pass — one per node, even though a page holds
// hundreds of half-edges — the blocked sweep reads whole page windows
// straight from the file and costs O(filePages) page reads in
// O(halfEdges/sweepEdgeChunk) file reads, and no pool pins at all: an
// edge list straddling two windows is carried across instead of re-read.
// The emitted slices alias the sweep's block buffers and are invalid after
// the callback returns. Faults (bounds, I/O, corrupt offsets) are latched
// on the view and returned; the callback is never invoked with partial
// data.
func (c *PagedCSR) SweepEdges(lo, hi graph.NodeID, fn func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool) error {
	return c.sweep(int(lo), int(hi), sweepIDs|sweepW, func(u int, ids []graph.NodeID, ws []float64) bool {
		return fn(graph.NodeID(u), ids, ws)
	})
}

// sweep is the shared blocked-iteration core behind SweepEdges,
// WeightedDegrees (weights only) and the tier decode. mode selects which
// runs are decoded; emit receives block-buffer subslices for exactly the
// selected runs (nil otherwise), valid only for the duration of the call.
//
//gmine:hotpath
func (c *PagedCSR) sweep(lo, hi int, mode sweepMode, emit func(u int, ids []graph.NodeID, ws []float64) bool) error {
	if lo < 0 || hi < lo || hi > c.n {
		return c.fault(fmt.Errorf("gtree: sweep range [%d,%d) out of bounds (n=%d)", lo, hi, c.n))
	}
	if lo == hi {
		return nil
	}
	xadj, err := c.offsets()
	if err != nil {
		return err // latched by offsets
	}
	b, _ := c.sh.sweeps.Get().(*sweepBufs)
	if b == nil {
		b = &sweepBufs{
			ids: make([]graph.NodeID, sweepEdgeChunk),
			ws:  make([]float64, sweepEdgeChunk),
		}
	}
	defer c.sh.sweeps.Put(b)

	// The decoded half-edge range resident in b.ids/b.ws. Windows never
	// read past the range's last half-edge.
	winLo, winHi, end := 0, 0, int(xadj[hi])
	for base := lo; base < hi; base += sweepNodeChunk {
		// Cooperative cancellation between chunks: a timed-out or
		// disconnected query stops reading here and surfaces ctx.Err()
		// unlatched.
		if err := c.canceled(); err != nil {
			return err
		}
		for u := base; u < min(base+sweepNodeChunk, hi); u++ {
			elo, ehi := int(xadj[u]), int(xadj[u+1])
			if elo == ehi {
				// Zero-degree node: emitted (kernels need the dangling
				// branch) without touching the edge runs.
				if !emit(u, nil, nil) {
					return nil
				}
				continue
			}
			// Rows are contiguous and ascending, so elo >= winLo always: a
			// row outside the window ends past it.
			if ehi > winHi {
				if winLo, winHi, err = c.advanceWindow(b, winLo, winHi, elo, ehi, end, mode); err != nil {
					return err
				}
			}
			var ids []graph.NodeID
			var ws []float64
			if mode&sweepIDs != 0 {
				ids = b.ids[elo-winLo : ehi-winLo : ehi-winLo]
			}
			if mode&sweepW != 0 {
				ws = b.ws[elo-winLo : ehi-winLo : ehi-winLo]
			}
			if !emit(u, ids, ws) {
				return nil
			}
		}
	}
	return nil
}

// advanceWindow slides the decoded edge window so it covers [elo,ehi),
// reading up to end. The already-decoded tail [elo,winHi) is carried to
// the front of the block buffers (the page-straddling case: a node's list
// begins in the previous window) and the window reads sweepEdgeChunk new
// half-edges past winHi — more when one list is longer — with one file
// read per decoded run. So a pass over h half-edges takes at most
// ⌈h/sweepEdgeChunk⌉ reads per run, whatever the row lengths. On a
// little-endian host each read lands in b.ids or b.ws directly (see
// hostBytes); RunReader.Read copies there only after every page's
// checksum has verified, so a faulted read leaves the window as it was.
//
//gmine:hotpath
func (c *PagedCSR) advanceWindow(b *sweepBufs, winLo, winHi, elo, ehi, end int, mode sweepMode) (int, int, error) {
	if elo < winHi {
		keep := winHi - elo
		if mode&sweepIDs != 0 {
			copy(b.ids, b.ids[elo-winLo:elo-winLo+keep])
		}
		if mode&sweepW != 0 {
			copy(b.ws, b.ws[elo-winLo:elo-winLo+keep])
		}
		winLo = elo
	} else {
		winLo, winHi = elo, elo
	}
	target := min(max(winHi+sweepEdgeChunk, ehi), end)
	need := target - winLo
	if len(b.ids) < need && mode&sweepIDs != 0 {
		nb := make([]graph.NodeID, need)
		copy(nb, b.ids)
		b.ids = nb
	}
	if len(b.ws) < need && mode&sweepW != 0 {
		nw := make([]float64, need)
		copy(nw, b.ws)
		b.ws = nw
	}
	m, at := target-winHi, winHi-winLo
	if !nativeLE && len(b.raw) < m*8 {
		b.raw = make([]byte, m*8)
	}
	if mode&sweepIDs != 0 {
		ids := b.ids[at : at+m]
		dst := hostBytes(ids)
		if dst == nil {
			dst = b.raw[:m*4]
		}
		pages, err := c.adjncy.Read(winHi, target, dst, &b.pages)
		c.sc.add(pages)
		if err != nil {
			return winLo, winHi, c.fault(err)
		}
		if !nativeLE {
			decodeIDs(ids, dst)
		}
	}
	if mode&sweepW != 0 {
		ws := b.ws[at : at+m]
		dst := hostBytes(ws)
		if dst == nil {
			dst = b.raw[:m*8]
		}
		pages, err := c.edgew.Read(winHi, target, dst, &b.pages)
		c.sc.add(pages)
		if err != nil {
			return winLo, winHi, c.fault(err)
		}
		if !nativeLE {
			decodeF64(ws, dst)
		}
	}
	return winLo, target, nil
}

// WeightedDegrees returns the per-node weighted degree table, computed on
// first use by one blocked sweep over the EdgeW run and cached for the
// store's lifetime (the table is O(N), which is resident anyway for every
// RWR/PageRank solve; it is the O(E) adjacency that stays on disk). A
// build that hits an I/O fault latches the error and is NOT cached, so the
// next query retries from the pages instead of serving a half-built table
// forever. Safe for concurrent use; callers must not mutate the result.
// Query views share one cache.
func (c *PagedCSR) WeightedDegrees() []float64 {
	sh := c.sh
	sh.wdegMu.Lock()
	defer sh.wdegMu.Unlock()
	if sh.wdeg != nil {
		return sh.wdeg
	}
	wdeg := make([]float64, c.n)
	err := c.sweep(0, c.n, sweepW, func(u int, _ []graph.NodeID, ws []float64) bool {
		var s float64
		for _, w := range ws {
			s += w
		}
		wdeg[u] = s
		return true
	})
	if err != nil {
		return wdeg // fault latched by the sweep; not cached
	}
	sh.wdeg = wdeg
	return wdeg
}
