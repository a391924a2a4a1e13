// Package gmine reproduces "GMine: A System for Scalable, Interactive
// Graph Visualization and Mining" (Rodrigues, Tong, Traina, Faloutsos,
// Leskovec; VLDB 2006) as a pure-Go library.
//
// GMine explores graphs with hundreds of thousands of nodes through two
// ideas:
//
//  1. Multi-resolution visualization. The graph is recursively k-way
//     partitioned into a hierarchy of communities-within-communities held
//     in the G-Tree, an R-tree-like structure persisted in a single file;
//     leaf communities page into memory on demand. The Tomahawk principle
//     limits each scene to the focus community, its children, its siblings
//     and its ancestors, keeping drawings intelligible regardless of graph
//     size.
//
//  2. Connection subgraph extraction. Given a set of query nodes, an
//     independent random walk with restart is simulated from each; nodes
//     are scored by the steady-state probability that the particles meet
//     ("goodness"), and a small output subgraph is grown from key paths
//     found by dynamic programming. Multi-source queries are answered
//     directly, unlike the pairwise-only KDD'04 baseline (also included).
//
// Quick start:
//
//	ds := gmine.GenerateDBLP(gmine.DBLPConfig{Scale: 0.05, Seed: 1})
//	eng, err := gmine.Build(ds.Graph, gmine.BuildConfig{K: 5, Levels: 5, Seed: 1})
//	// navigate:
//	eng.FocusChild(0)
//	svg := eng.RenderScene(900, gmine.TomahawkOptions{Grandchildren: true})
//	// query and mine:
//	hits, _ := eng.FindLabel("Jiawei Han")
//	res, _ := eng.ExtractByLabels([]string{"Philip S. Yu", "Flip Korn"},
//	        gmine.ExtractOptions{Budget: 30})
//	_ = svg; _ = hits; _ = res
//
// For serving many interactive users, the engine also runs behind a
// long-lived HTTP/JSON server (`gmine serve`, or NewServer in-process):
// named sessions live in a registry under per-session RW locks so
// navigation and extraction reads proceed in parallel, and a bounded LRU
// cache keyed on canonicalized query parameters answers repeated
// interactive queries without re-running the RWR solve:
//
//	srv := gmine.NewServer(gmine.ServerConfig{Addr: ":8080"})
//	srv.Preload(gmine.CreateSessionRequest{
//	        Name: "dblp", Source: "synthetic", Scale: 0.1, Seed: 1})
//	srv.ListenAndServe()
//
// Disk-backed sessions can additionally tier: while SetTierBudget (or
// `-tierbudget` / the tierBudget session field) covers the decoded CSR,
// the engine promotes the whole graph into memory after its first query,
// and each later query that opens while it is resident reads it from
// there, bit-identical to the paged path. Below that budget every query
// pages: its whole-graph sweeps read the file a window of pages at a time
// without touching the buffer pool, and only its row cursors pin pages
// through the pool, with row bounds from an offset table read once per
// store. Every paged query reads through its own view, which latches its
// own faults and counts its own reads, so one query's bad read never
// fails another. See README "Blocked sweeps", "Hot/cold tiering" and
// "Resilience".
//
// The package is a thin facade over the internal implementation packages;
// everything needed to reproduce the paper's figures is reachable from
// here. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
//
// The hot-path contracts the implementation rests on — sweep-callback
// buffer aliasing, buffer-pool pin pairing, errors.Is discipline,
// zero-alloc //gmine:hotpath kernels — are machine-enforced by the
// cmd/gminevet multichecker (internal/lint), run by `make lint` and CI.
package gmine
