// Package extract implements GMine's connection subgraph extraction
// (paper §IV): an independent random walk with restart (RWR) is simulated
// from each query source; a node's "goodness score" is the steady-state
// probability that the source particles meet there; important paths are
// then discovered iteratively by dynamic programming and assembled into a
// small output subgraph. This is the multi-source generalization the paper
// contrasts with the pairwise-only algorithm of Faloutsos, McCurley and
// Tomkins (KDD'04), which is implemented in this package as the baseline.
package extract

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/graph"
)

// RWROptions tunes the random walk with restart.
type RWROptions struct {
	// Restart is the restart probability c (default 0.15): at every step
	// the particle returns to its source with probability c. Must lie in
	// (0,1); zero means "use the default".
	Restart float64
	// Epsilon is the L1 convergence threshold (default 1e-10). Must be
	// positive; zero means "use the default".
	Epsilon float64
	// MaxIter caps power iterations (default 200).
	MaxIter int
	// Parallel is accepted and ignored by the solver: RWRMulti used to fan
	// sources out over a worker pool of this size; it now advances every
	// source in one sweep per iteration, which leaves nothing to bound.
	// The field stays because bench/layers sets it (deleting it is a
	// [benchmark] change first). It never affected results and stays out
	// of server cache keys.
	Parallel int
	// Shards is accepted and ignored like Parallel: every power iteration
	// is one serial sweep. The field stays because bench/layers sets it;
	// deleting it is a [benchmark] change first.
	Shards int
	// Ctx optionally carries the caller's cancellation into the solve:
	// RWRSet polls it at every power-iteration boundary and aborts with
	// ctx.Err() — so a server timeout or client disconnect stops a
	// whole-graph walk within one pass instead of grinding the remaining
	// iterations. It is an execution knob with no effect on results that
	// complete, and is excluded from server cache keys. nil means never
	// cancelled.
	Ctx context.Context
}

// Normalize validates o and fills zero fields with defaults. Explicitly
// out-of-range values are rejected instead of silently remapped, so a
// caller asking for Restart=1.5 gets an error rather than results computed
// under Restart=0.15. NaN and ±Inf are rejected too: NaN fails every range
// comparison, so without the explicit check a NaN restart would sail
// through, poison the whole solve with NaN scores, and get cached by the
// server as if it were an answer.
func (o RWROptions) Normalize() (RWROptions, error) {
	switch {
	case math.IsNaN(o.Restart) || math.IsInf(o.Restart, 0):
		return o, fmt.Errorf("extract: restart probability %g is not finite", o.Restart)
	case o.Restart == 0:
		o.Restart = 0.15
	case o.Restart <= 0 || o.Restart >= 1:
		return o, fmt.Errorf("extract: restart probability %g out of range (0,1)", o.Restart)
	}
	switch {
	case math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0):
		return o, fmt.Errorf("extract: epsilon %g is not finite", o.Epsilon)
	case o.Epsilon == 0:
		o.Epsilon = 1e-10
	case o.Epsilon < 0:
		return o, fmt.Errorf("extract: epsilon %g must be positive", o.Epsilon)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// RWR computes the steady-state visiting distribution of a random walk
// restarting at src: r = (1-c)·Pᵀr + c·e_src, where P is the row-stochastic
// transition matrix weighted by edge weight. The result sums to 1 when src
// can always move (isolated sources keep all mass).
func RWR(c graph.Adjacency, src graph.NodeID, opts RWROptions) ([]float64, error) {
	return RWRSet(c, []graph.NodeID{src}, opts)
}

// RWRSet computes RWR with the restart mass spread uniformly over a source
// set (the particle teleports to a random member of the set).
func RWRSet(c graph.Adjacency, sources []graph.NodeID, opts RWROptions) ([]float64, error) {
	out, err := rwrBlocked(c, [][]graph.NodeID{sources}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RWRMulti runs an independent RWR per source, returning one score vector
// per source — the inputs to the goodness score. All the walks advance
// together: one pass over the adjacency per power iteration serves every
// source that has not converged yet, so k sources cost as many sweeps as
// the slowest of them, not the sum. Each vector is bit-identical to
// RWR(c, source, opts). opts.Parallel and opts.Shards are not read.
func RWRMulti(c graph.Adjacency, sources []graph.NodeID, opts RWROptions) ([][]float64, error) {
	sets := make([][]graph.NodeID, len(sources))
	for i := range sources {
		sets[i] = sources[i : i+1]
	}
	return rwrBlocked(c, sets, opts)
}

// rwrWalk is the state of one restart set's power iteration inside a blocked
// solve: the score pair r and next.
type rwrWalk struct {
	set     []graph.NodeID
	r, next []float64
}

// rwrBlocked is the one power-iteration body behind RWRSet, RWRMulti and
// analysis.PageRankAdj (the walk whose restart set is every node): one walk
// per restart set, all advanced by the same pass over the adjacency.
// Before each pass every walk folds its restart mass — c, plus the mass
// sitting on nodes without out-edges, whose walkers restart — onto its set;
// within a pass the walks are applied to each row in set order. Every walk
// sees exactly the floating-point operations, in exactly the order, of a
// solve run alone; a walk that converges is frozen at that iteration and
// drops out of the later passes.
func rwrBlocked(c graph.Adjacency, sets [][]graph.NodeID, opts RWROptions) ([][]float64, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	n := c.N()
	for _, set := range sets {
		if len(set) == 0 {
			return nil, fmt.Errorf("extract: RWR needs at least one source")
		}
		for _, s := range set {
			if s < 0 || int(s) >= n {
				return nil, fmt.Errorf("extract: source %d out of range (n=%d)", s, n)
			}
		}
	}
	walks := make([]*rwrWalk, len(sets))
	for j, set := range sets {
		w := &rwrWalk{set: set, r: make([]float64, n), next: make([]float64, n)}
		share := 1.0 / float64(len(set))
		for _, s := range set {
			w.r[s] += share
		}
		walks[j] = w
	}
	wdeg := c.WeightedDegrees()
	var dangling []graph.NodeID
	for u, d := range wdeg {
		if d == 0 {
			dangling = append(dangling, graph.NodeID(u))
		}
	}
	cc := opts.Restart
	// live holds the walks still iterating, in set order.
	live := append([]*rwrWalk(nil), walks...)
	// Each pass is one sweep of the adjacency in storage layout order —
	// O(filePages) page reads per iteration on a paged CSR —
	// and rows arrive in ascending u on every backend, so every backend
	// produces the same floating-point vectors.
	push := func(u graph.NodeID, nbrs []graph.NodeID, ws []float64) bool {
		wu := wdeg[u]
		if wu == 0 {
			return true // folded into the restart before the pass
		}
		for _, w := range live {
			ru := w.r[u]
			if ru == 0 {
				continue
			}
			scale := (1 - cc) * ru / wu
			next := w.next
			for i, v := range nbrs {
				next[v] += scale * ws[i]
			}
		}
		return true
	}
	// done caches Ctx.Done() so the per-iteration cancellation poll is one
	// channel read. Paged backends additionally poll between sweep chunks
	// (gtree.Store.QueryView); this boundary check is what covers the
	// in-memory CSR, whose sweeps never block on I/O but still cost a full
	// edge pass per iteration.
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	for iter := 0; iter < opts.MaxIter && len(live) > 0; iter++ {
		if done != nil {
			select {
			case <-done:
				return nil, opts.Ctx.Err()
			default:
			}
		}
		for _, w := range live {
			clear(w.next)
			// The walker restarts with probability c, and always from a
			// node without out-edges: each of the k set members gets c/k
			// plus (1−c)/k of the mass on those nodes, summed in ascending
			// id.
			var sum float64
			for _, u := range dangling {
				sum += w.r[u]
			}
			k := float64(len(w.set))
			base := cc/k + (1-cc)*sum/k
			for _, s := range w.set {
				w.next[s] += base
			}
		}
		if err := c.SweepEdges(0, graph.NodeID(n), push); err != nil {
			return nil, err
		}
		still := live[:0]
		for _, w := range live {
			var delta float64
			for i := range w.r {
				delta += math.Abs(w.next[i] - w.r[i])
			}
			w.r, w.next = w.next, w.r
			if delta < opts.Epsilon {
				continue // converged: frozen at this iteration
			}
			still = append(still, w)
		}
		live = still
	}
	out := make([][]float64, len(walks))
	for j, w := range walks {
		out[j] = w.r
	}
	return out, nil
}
