package graph

// Adjacency is the read-only view of a graph's neighbor structure that the
// algorithm kernels (RWR, residual push, goodness, key paths, PageRank)
// consume. Three implementations exist: the in-memory *CSR, the
// disk-backed gtree.PagedCSR, which reads neighbor ranges through the
// storage buffer pool so the resident adjacency memory is bounded by the
// pool size instead of the graph size, and gtree.TieredCSR, a PagedCSR
// with hot node ranges pinned in memory.
//
// There are three ways to read rows, by access pattern: whole-graph
// kernels sweep (EdgeSweeper below); local kernels that read many rows in
// their own order open a Cursor; a stray row goes through NeighborsInto.
//
// Implementations must be safe for concurrent readers: the extraction
// worker pool reads from several goroutines at once (each with its own
// cursor or sweep). Callers must not mutate any returned slice.
type Adjacency interface {
	// N returns the number of nodes.
	N() int
	// Degree returns the number of stored half-edges at u.
	Degree(u NodeID) int
	// Neighbors returns the neighbor ids and parallel edge weights of u.
	// The slices may alias internal storage (in-memory CSR) or be fresh
	// copies (paged CSR); either way they are read-only to the caller and
	// only valid until the next call on the same goroutine.
	Neighbors(u NodeID) ([]NodeID, []float64)
	// NeighborsInto is the zero-allocation fast path of Neighbors: the
	// kernel hot loops call it once per node per iteration, and the
	// caller-supplied buffers are what keep a paged solve from allocating
	// O(degree) garbage on every call.
	//
	// Buffer-ownership contract:
	//
	//   - The caller passes two scratch buffers, normally the previous
	//     call's return values resliced to length zero (nil is fine to
	//     start). An implementation either appends u's neighbors into them
	//     (disk-backed PagedCSR decodes pages into the buffers, growing
	//     them as needed) or ignores them entirely and returns read-only
	//     subslices aliasing its internal storage (in-memory CSR).
	//   - The returned slices are read-only and valid only until the next
	//     NeighborsInto call that is handed the same buffers. The intended
	//     reuse pattern, one buffer pair per goroutine per solve, is
	//
	//       var nbrs []NodeID
	//       var ws []float64
	//       for ... {
	//           nbrs, ws = adj.NeighborsInto(u, nbrs[:0], ws[:0])
	//           ... read nbrs, ws ...
	//       }
	//
	//     which allocates only while the buffers grow toward the maximum
	//     degree encountered (and never on the aliasing CSR). The
	//     implementations carry a //gmine:hotpath annotation, so the
	//     hotalloc analyzer (`make lint`) rejects unguarded allocation in
	//     their bodies at build time.
	//   - Because an aliasing implementation returns internal storage, a
	//     buffer pair must only ever be reused with the SAME Adjacency
	//     instance, and never appended to or mutated by the caller —
	//     feeding a CSR's aliased row into another implementation's append
	//     would scribble over the graph.
	//   - A TIERED implementation (gtree.TieredCSR) mixes both regimes
	//     behind one instance: rows resident in a pinned CSR fragment and
	//     rows read through the buffer pool. It must therefore COPY
	//     fragment rows into the caller's buffers on Into-reads — never
	//     hand out fragment-aliasing slices — because the caller's reuse
	//     pattern appends the next (possibly paged) row into whatever came
	//     back, and a fragment can be demoted between calls. Sweep
	//     callbacks are different: there the rows may alias fragment
	//     storage directly (cap-clamped), since the sweep contract below
	//     already forbids the callback from retaining or appending to its
	//     slices, and the sweep holds one immutable fragment snapshot for
	//     its whole pass.
	//
	// A paged implementation that faults mid-read returns empty slices and
	// records the fault exactly like Neighbors. NeighborsInto pins and
	// unpins the pages of one row per call; a loop over many rows should
	// open a Cursor instead.
	NeighborsInto(u NodeID, nbrBuf []NodeID, wBuf []float64) ([]NodeID, []float64)
	// WeightedDegrees returns the per-node weighted degree table (cached
	// after the first call).
	WeightedDegrees() []float64
	// HalfEdges returns the number of stored half-edges (2E for undirected
	// graphs, E for directed ones).
	HalfEdges() int
	// Cursor opens a row cursor for the calling goroutine (see RowCursor).
	Cursor() RowCursor
}

// RowCursor is the random-access primitive of the local kernels — key-path
// DP, residual push, induced-subgraph materialization — which read one
// node's row at a time in an order only they know. It is opened from an
// Adjacency, belongs to ONE goroutine, and must be Closed on every path
// (the pinpair analyzer checks).
//
// Why a cursor and not more NeighborsInto calls: a paged backend's cursor
// keeps the page it last read in each run pinned until a read lands on a
// different page, so a kernel that visits nodes roughly in id order pays
// the buffer pool one pin per page instead of two per node. Open one for
// any loop that reads more than a handful of rows.
//
// Contract:
//
//   - Reads return exactly the ids, weights and order NeighborsInto would
//     — kernels stay bit-identical across backends and across the two
//     read paths.
//   - Buffers follow NeighborsInto's append-into contract (an aliasing
//     backend ignores them), and the returned rows are read-only and valid
//     only until the next read on the same cursor. The sweepalias analyzer
//     flags rows stored anywhere longer-lived than a local.
//   - NeighborIDs skips the weights; a paged backend then never touches
//     the EdgeW run (8 of the 12 bytes per half-edge).
//   - A paged read fault appends nothing and latches the backend's fault
//     epoch once, exactly like NeighborsInto.
//   - While a cursor is open its goroutine must not read the same backend
//     any other way (sweeps, NeighborsInto, label or leaf loads): the
//     cursor may be holding pool frames, and the pool's rule is never to
//     wait for a frame while holding one (storage.BufferPool.Get).
type RowCursor interface {
	// Neighbors reads u's neighbor ids and parallel edge weights.
	Neighbors(u NodeID, nbrBuf []NodeID, wBuf []float64) ([]NodeID, []float64)
	// NeighborIDs reads u's neighbor ids only.
	NeighborIDs(u NodeID, nbrBuf []NodeID) []NodeID
	// Close releases whatever the cursor holds. Idempotent.
	Close()
}

// EdgeSweeper is the optional edge-centric fast path next to Adjacency for
// whole-graph kernels (RWR power iteration, PageRank, structure reports)
// that visit EVERY node's edge list per pass. A node-centric loop over
// NeighborsInto asks the backend for one node at a time, which on a paged
// implementation pins and unpins the underlying pages once per node even
// though one page holds hundreds of half-edges — O(n) buffer-pool
// round-trips per iteration where O(filePages) would do. SweepEdges
// inverts the loop: the backend walks its own storage in layout order
// (page run by page run for a paged CSR, a plain slice walk for the
// in-memory one) and emits each node's full edge list to the callback.
//
// Contract:
//
//   - Every node u in [lo,hi) is emitted exactly once, in ascending order,
//     INCLUDING zero-degree nodes (with empty slices) — kernels rely on
//     seeing dangling nodes.
//   - nbrs and w are parallel, read-only, and valid only for the duration
//     of the callback: they alias the sweep's block buffers (or the CSR's
//     internal storage) and are overwritten or recycled as soon as fn
//     returns. Callers must copy anything they keep. The sweepalias
//     analyzer (`make lint`) flags callbacks that let the slices escape.
//   - fn returning false stops the sweep early; SweepEdges then returns
//     nil.
//   - The emitted ids, weights and their order are bit-identical to what
//     Neighbors/NeighborsInto would return for the same nodes, so a kernel
//     produces the same floating-point result on either path.
//   - Bounds faults (lo<0, hi<lo, hi>N) and, on a paged implementation,
//     I/O or corruption faults mid-sweep return a non-nil error. A paged
//     implementation additionally records the fault on its Faults/ErrSince
//     epoch, exactly like NeighborsInto, so the engine-level fault
//     discipline keeps working unchanged.
//   - Safe for concurrent sweeps on one instance; each call uses its own
//     block buffers.
type EdgeSweeper interface {
	SweepEdges(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID, w []float64) bool) error
}

// NeighborIDSweeper is the ids-only companion of EdgeSweeper, for sweeps
// that never look at weights (connectivity, degree reports). A paged
// implementation skips the EdgeW run entirely — weights are 8 of the 12
// bytes per half-edge — so the blocked structure sweep reads a third of
// the bytes SweepEdges would. Same contract as EdgeSweeper with the
// weight slice dropped.
type NeighborIDSweeper interface {
	SweepNeighborIDs(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID) bool) error
}

var _ Adjacency = (*CSR)(nil)
var _ EdgeSweeper = (*CSR)(nil)
var _ NeighborIDSweeper = (*CSR)(nil)
var _ EdgeOffsetter = (*CSR)(nil)
var _ SweepShardViewer = (*CSR)(nil)
