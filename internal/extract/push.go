package extract

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// pushDefaultEpsilon is the push threshold used when the caller passes
// epsilon == 0.
const pushDefaultEpsilon = 1e-7

// RWRPush approximates the random-walk-with-restart vector with the
// residual-push scheme (Berkhin's bookmark-coloring / Andersen–Chung–Lang
// local push): mass starts as residual at the source; pushing a node moves
// a c-fraction of its residual into the estimate and spreads the rest over
// its neighbors. Work is local to the source's neighborhood — for
// low-conductance queries it touches a small part of the graph instead of
// iterating over every edge, which is what makes interactive extraction on
// the full 315k-node DBLP snappy.
//
// epsilon controls accuracy: on exit every node satisfies
// residual[u] <= epsilon * wdeg(u), giving the standard L1 guarantee
// |approx - exact| bounded by epsilon per unit degree.
//
// Zero restart/epsilon mean "use the default" (0.15 and pushDefaultEpsilon);
// explicitly out-of-range or non-finite values are rejected through
// RWROptions.Normalize — the same reject-don't-remap policy the
// power-iteration path enforces — instead of being silently remapped to
// the defaults.
func RWRPush(c graph.Adjacency, src graph.NodeID, restart, epsilon float64) ([]float64, error) {
	return RWRPushCtx(nil, c, src, restart, epsilon)
}

// pushCancelStride is how many queue pops RWRPushCtx processes between
// cancellation polls. Push work is bursty — most pops are cheap, a hub's
// can decode thousands of neighbors — so a modest stride keeps the poll
// off the per-pop path while still bounding how long a dead client's
// query keeps pushing.
const pushCancelStride = 1024

// RWRPushCtx is RWRPush under a caller's context: the push loop polls ctx
// every pushCancelStride queue pops and aborts with ctx.Err(). A nil ctx
// is RWRPush. (The power-iteration path takes its context through
// RWROptions.Ctx instead; push's positional signature predates options.)
func RWRPushCtx(ctx context.Context, c graph.Adjacency, src graph.NodeID, restart, epsilon float64) ([]float64, error) {
	n := c.N()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("extract: source %d out of range (n=%d)", src, n)
	}
	if epsilon == 0 {
		// Push's historical default is looser than the power iteration's
		// 1e-10: the scheme is an approximation by design and 1e-7 keeps
		// interactive queries local.
		epsilon = pushDefaultEpsilon
	}
	opts, err := RWROptions{Restart: restart, Epsilon: epsilon}.Normalize()
	if err != nil {
		return nil, err
	}
	restart, epsilon = opts.Restart, opts.Epsilon
	p := make([]float64, n)
	r := make([]float64, n)
	r[src] = 1
	wdeg := c.WeightedDegrees()
	// FIFO queue of nodes whose residual exceeds the push threshold.
	inQ := make([]bool, n)
	queue := make([]int32, 0, 64)
	// One cursor for the whole solve (this goroutine only), opened after
	// WeightedDegrees above — which may sweep a paged backend — because a
	// goroutine holding a cursor must not read the backend any other way.
	cur := c.Cursor()
	defer cur.Close()
	pushable := func(u int32) bool {
		if wdeg[u] == 0 {
			// Isolated node: all its residual becomes estimate directly.
			return r[u] > 0
		}
		return r[u] > epsilon*wdeg[u]
	}
	enqueue := func(u int32) {
		if !inQ[u] && pushable(u) {
			inQ[u] = true
			queue = append(queue, u)
		}
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	enqueue(int32(src))
	for pops := 0; len(queue) > 0; pops++ {
		if done != nil && pops%pushCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		u := queue[0]
		queue = queue[1:]
		inQ[u] = false
		if !pushable(u) {
			continue
		}
		ru := r[u]
		r[u] = 0
		if wdeg[u] == 0 {
			// Walker at an isolated node restarts immediately; with the
			// source isolated this fixes p[src] = 1.
			p[u] += restart * ru
			if int32(src) != u {
				r[src] += (1 - restart) * ru
				enqueue(int32(src))
			} else {
				// Self-residual: the remaining mass keeps returning; sum
				// the geometric series directly to terminate.
				p[u] += (1 - restart) * ru
			}
			continue
		}
		p[u] += restart * ru
		spread := (1 - restart) * ru / wdeg[u]
		nbrs, ws := cur.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			r[v] += spread * ws[i]
			enqueue(int32(v))
		}
	}
	return p, nil
}
