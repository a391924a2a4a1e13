package graph

// Adjacency is the read-only view of a graph's neighbor structure that the
// algorithm kernels (RWR, goodness, key paths, PageRank) consume. Three implementations exist: the in-memory *CSR, the
// disk-backed gtree.PagedCSR, which reads neighbor ranges through the
// storage buffer pool so the resident adjacency memory is bounded by the
// pool size instead of the graph size, and gtree.TieredCSR, which is one
// of the other two: a query picks the store's decoded in-memory copy of
// the graph when its tier budget holds one, and its paged view otherwise.
//
// There are two ways to read rows, by access pattern: whole-graph kernels
// sweep (EdgeSweeper below); local kernels that read rows in their own
// order open a Cursor.
//
// Implementations must be safe for concurrent readers: concurrent queries
// read one instance from several goroutines at once (each with its own
// cursor or sweep). Callers must not mutate any returned slice.
type Adjacency interface {
	// N returns the number of nodes.
	N() int
	// WeightedDegrees returns the per-node weighted degree table (cached
	// after the first call).
	WeightedDegrees() []float64
	// HalfEdges returns the number of stored half-edges (2E for undirected
	// graphs, E for directed ones).
	HalfEdges() int
	// Cursor opens a row cursor for the calling goroutine (see RowCursor).
	Cursor() RowCursor
	EdgeSweeper
}

// RowCursor is the random-access primitive of the local kernels — key-path
// DP and induced-subgraph materialization — which read one node's row at
// a time in an order only they know. It is opened from an
// Adjacency, belongs to ONE goroutine, and must be Closed on every path
// (the pinpair analyzer checks).
//
// Why a cursor and not a one-shot row read: a paged backend's cursor
// keeps the page it last read in each run pinned until a read lands on a
// different page, so a kernel that visits nodes roughly in id order —
// ascending or descending — pays the buffer pool one pin per page instead
// of one or two per node, and hands out rows that lie on one page as
// views of the pinned frame itself, with no decode.
//
// Contract:
//
//   - Reads return exactly the ids, weights and order a sweep emits for
//     the same node — kernels stay bit-identical across backends and
//     across the two read paths.
//   - Buffer ownership: every returned row belongs to the implementation.
//     It is a read-only, cap-clamped view of the backend's own memory —
//     the in-memory CSR's arrays, or a pinned buffer-pool frame, which
//     the paged cursor's NeighborIDs hands out for a row that lies on one
//     page — or of a buffer the cursor owns and reuses (a paged row that
//     straddles pages, every paged Neighbors read). The caller passes no
//     buffer and must never write through a row: a write into a frame
//     view would corrupt the pool's copy of the page for every query. The
//     sweepalias analyzer flags index assignments, copy and sorts whose
//     target is a row.
//   - The returned rows are valid only until the next read or Close on
//     the same cursor (the next read may move the pin, and an unpinned
//     frame is recycled). The sweepalias analyzer flags rows stored
//     anywhere longer-lived than a local.
//   - NeighborIDs skips the weights; a paged backend then never touches
//     the EdgeW run (8 of the 12 bytes per half-edge).
//   - A paged read fault returns an empty row and latches one fault on
//     the view the cursor was opened on (gtree.PagedCSR.Err; one view per
//     query, so another query's fault never reaches this one).
//   - While a cursor is open its goroutine must not read the same backend
//     any other way (sweeps, label or leaf loads): the cursor may be
//     holding pool frames, and the pool's rule is never to wait for a
//     frame while holding one (storage.BufferPool.Get).
//
// The read paths carry a //gmine:hotpath annotation, so the hotalloc
// analyzer (`make lint`) rejects unguarded allocation in their bodies.
type RowCursor interface {
	// Neighbors reads u's neighbor ids and parallel edge weights.
	Neighbors(u NodeID) ([]NodeID, []float64)
	// NeighborIDs reads u's neighbor ids only.
	NeighborIDs(u NodeID) []NodeID
	// Close releases whatever the cursor holds. Idempotent.
	Close()
}

// EdgeSweeper is the read path of the whole-graph kernels (RWR power
// iteration, PageRank, weighted degrees), which visit EVERY node's edge
// list per pass. The backend walks its own storage in layout order (page
// run by page run for a paged CSR, a plain slice walk for the in-memory
// one) and emits each node's full edge list to the callback, so one pass
// costs a paged backend O(filePages) page reads — a window of pages per
// file read, no buffer-pool round-trip at all — instead of O(n) row reads.
//
// Contract:
//
//   - Every node u in [lo,hi) is emitted exactly once, in ascending order,
//     INCLUDING zero-degree nodes (with empty slices) — kernels rely on
//     seeing dangling nodes.
//   - nbrs and w are parallel, read-only, and valid only for the duration
//     of the callback: they alias the sweep's block buffers (or an in-memory
//     CSR's storage, cap-clamped) and are overwritten or recycled as soon
//     as fn returns. Callers must copy anything they keep.
//     The sweepalias analyzer (`make lint`) flags callbacks that let the
//     slices escape.
//   - fn returning false stops the sweep early; SweepEdges then returns
//     nil.
//   - The emitted ids, weights and their order are bit-identical across
//     backends and to what a RowCursor reads for the same nodes, so a
//     kernel produces the same floating-point result on every backend.
//   - Bounds faults (lo<0, hi<lo, hi>N) and, on a paged implementation,
//     I/O or corruption faults mid-sweep return a non-nil error. A paged
//     implementation additionally latches the fault on the view swept, the
//     one place the engine checks after a solve.
//   - Safe for concurrent sweeps on one instance; each call uses its own
//     block buffers.
type EdgeSweeper interface {
	SweepEdges(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID, w []float64) bool) error
}

var _ Adjacency = (*CSR)(nil)
