package gtree

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// BuildOptions configures G-Tree construction.
type BuildOptions struct {
	// K is the fanout: each community splits into at most K
	// sub-communities (paper: 5).
	K int
	// Levels is the number of tree levels including the root (paper: 5,
	// giving K^(Levels-1) leaf communities on a large enough graph).
	Levels int
	// MinCommunity stops splitting communities at or below this size; they
	// become leaves early. Zero means 2*K.
	MinCommunity int
	// Parallel bounds the number of communities partitioned concurrently
	// per level (0 = GOMAXPROCS). The result is identical for any value:
	// tree ids and partition seeds depend only on deterministic state.
	Parallel int
	// Partition configures the partitioner used at every split. The K
	// field inside is overridden by BuildOptions.K, and Seed is combined
	// deterministically with each community's id.
	Partition partition.Options
}

func (o BuildOptions) withDefaults() (BuildOptions, error) {
	if o.K < 2 {
		return o, fmt.Errorf("gtree: fanout K=%d, want >= 2", o.K)
	}
	if o.Levels < 1 {
		return o, fmt.Errorf("gtree: Levels=%d, want >= 1", o.Levels)
	}
	if o.MinCommunity <= 0 {
		o.MinCommunity = 2 * o.K
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Build constructs a G-Tree for g by recursive k-way partitioning,
// computing connectivity edges and per-community internal edge statistics
// in one bottom-up pass. Communities of one level partition concurrently;
// the output is deterministic regardless of parallelism.
func Build(g *graph.Graph, opts BuildOptions) (*Tree, error) {
	return BuildContext(context.Background(), g, opts)
}

// BuildContext is Build for a caller that may give up: ctx is polled before
// each community split, and once it is cancelled no further split starts,
// the running ones finish, and the context's error is returned.
func BuildContext(ctx context.Context, g *graph.Graph, opts BuildOptions) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	t := &Tree{K: opts.K, conn: make(map[connKey]ConnStat)}
	t.nodes = append(t.nodes, Node{ID: 0, Parent: InvalidTree, Level: 0, Size: n})
	t.leafOf = make([]TreeID, n)

	type work struct {
		id      TreeID
		members []graph.NodeID
	}
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	level := []work{{id: 0, members: all}}
	// One CSR per build: every community's split reads its rows. The
	// partitioner reads no labels, so none are induced.
	adj := graph.ToCSR(g)
	for len(level) > 0 {
		// Decide and split every community of this level in parallel;
		// ids and seeds depend only on the community id, so any worker
		// interleaving produces the same tree.
		groups := make([][][]graph.NodeID, len(level)) // nil => leaf
		errs := make([]error, len(level))
		var wg sync.WaitGroup
		sem := make(chan struct{}, opts.Parallel)
		for i := range level {
			w := level[i]
			node := &t.nodes[w.id]
			if node.Level >= opts.Levels-1 || len(w.members) <= opts.MinCommunity {
				continue // leaf: settled below
			}
			sem <- struct{}{}
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			go func(i int, w work) {
				defer wg.Done()
				defer func() { <-sem }()
				sub, toOrig := graph.Induced(adj, g.Directed(), nil, w.members)
				popts := opts.Partition
				popts.K = opts.K
				popts.Seed = opts.Partition.Seed + int64(w.id)
				res, err := partition.Partition(sub, popts)
				if err != nil {
					errs[i] = fmt.Errorf("gtree: partitioning community %d: %w", w.id, err)
					return
				}
				gs := make([][]graph.NodeID, opts.K)
				for su, p := range res.Parts {
					gs[p] = append(gs[p], toOrig[su])
				}
				groups[i] = gs
			}(i, w)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Apply results in deterministic order: create children / settle
		// leaves.
		var next []work
		for i := range level {
			w := level[i]
			gs := groups[i]
			nonEmpty := 0
			for _, grp := range gs {
				if len(grp) > 0 {
					nonEmpty++
				}
			}
			if gs == nil || nonEmpty <= 1 {
				// Leaf: either the level/size floor was hit, or the split
				// was degenerate.
				node := &t.nodes[w.id]
				node.Members = w.members
				for _, u := range w.members {
					t.leafOf[u] = w.id
				}
				continue
			}
			for _, grp := range gs {
				if len(grp) == 0 {
					continue
				}
				child := Node{
					ID:     TreeID(len(t.nodes)),
					Parent: w.id,
					Level:  t.nodes[w.id].Level + 1,
					Size:   len(grp),
				}
				t.nodes = append(t.nodes, child)
				t.nodes[w.id].Children = append(t.nodes[w.id].Children, child.ID)
				next = append(next, work{id: child.ID, members: grp})
			}
		}
		level = next
	}
	for i := range t.nodes {
		if l := t.nodes[i].Level + 1; l > t.Levels {
			t.Levels = l
		}
	}
	t.computeConnectivity(g)
	return t, nil
}

// computeConnectivity fills the connectivity map and per-node internal edge
// stats. For each original edge (u,v): every ancestor level at which u and
// v fall in the same community counts the edge as internal there; every
// level at which they differ contributes to the connectivity edge between
// the two (same-level) communities.
func (t *Tree) computeConnectivity(g *graph.Graph) {
	// Root-to-leaf paths, once per leaf instead of twice per edge.
	paths := make([][]TreeID, len(t.nodes))
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			paths[i] = t.Path(TreeID(i))
		}
	}
	g.Edges(func(u, v graph.NodeID, w float64) bool {
		pu := paths[t.leafOf[u]]
		pv := paths[t.leafOf[v]]
		maxLevel := len(pu)
		if len(pv) < maxLevel {
			maxLevel = len(pv)
		}
		l := 0
		for ; l < maxLevel && pu[l] == pv[l]; l++ {
			n := &t.nodes[pu[l]]
			n.InternalCount++
			n.InternalWeight += w
		}
		// Below the lowest common ancestor the paths have split for good;
		// also handle leaves at different depths by extending the shorter
		// path's terminal leaf.
		for i := l; i < len(pu) || i < len(pv); i++ {
			a := pu[min(i, len(pu)-1)]
			b := pv[min(i, len(pv)-1)]
			if a == b {
				continue
			}
			k := mkConnKey(a, b)
			s := t.conn[k]
			s.Count++
			s.Weight += w
			t.conn[k] = s
		}
		return true
	})
}
