// Package graphtest checks graph.Adjacency backends: TestAdjacency runs
// the whole Adjacency contract against one backend, in the manner of
// testing/fstest.TestFS, and Oracle recomputes the kernels that read an
// Adjacency the textbook way, as the referee of their results.
package graphtest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// Probe is what a backend that pins frames and latches faults reports to
// TestAdjacency. Every field is optional.
type Probe struct {
	// Pins returns the buffer-pool frames the backend holds pinned now.
	Pins func() int
	// Faults returns how many faults the opened view has latched.
	Faults func() uint64
	// Fail makes the backend's next file read fail on every attempt.
	Fail func()
}

// Opener opens a fresh view of the backend under test, over its own cold
// buffer pool, and its probe (nil for a backend with neither pins nor
// faults).
type Opener func(t *testing.T) (graph.Adjacency, *Probe)

// TestAdjacency checks the Adjacency contract of the backend open serves
// over g, bit for bit against g's rows in graph.ToCSR order:
//
//   - N, HalfEdges and WeightedDegrees;
//   - cursor rows in ascending, descending and random order, full and
//     ids-only reads interleaved;
//   - sweeps over the full range, over sub-ranges and with an early stop,
//     zero-degree rows included, and out-of-range sweeps that fail before
//     any callback;
//   - readers on several goroutines at once (run it under -race);
//   - with a probe: no frame pinned once every cursor is closed, exactly
//     one fault latched per faulting read or bad range, and on an injected
//     fault an empty row from a cursor and no callback for the faulted
//     rows from a sweep.
func TestAdjacency(t *testing.T, g *graph.Graph, open Opener) {
	t.Helper()
	want := NewOracle(g)
	n := graph.NodeID(want.n)
	adj, p := open(t)
	if p == nil {
		p = &Probe{}
	}
	half := 0
	for u := range n {
		half += len(want.out[u])
	}
	if adj.N() != want.n || adj.HalfEdges() != half {
		t.Fatalf("geometry %d nodes / %d half-edges, want %d / %d", adj.N(), adj.HalfEdges(), want.n, half)
	}
	for u, w := range adj.WeightedDegrees() {
		if wd := want.weightedDegree(graph.NodeID(u)); math.Float64bits(w) != math.Float64bits(wd) {
			t.Fatalf("WeightedDegrees[%d] = %v, want %v", u, w, wd)
		}
	}

	for name, order := range VisitOrders(want.n, 1) {
		if err := want.CheckCursor(adj, order); err != nil {
			t.Fatalf("cursor %s: %v", name, err)
		}
		p.requireNoPins(t, "cursor "+name)
	}

	for _, r := range [][3]graph.NodeID{{0, n, 0}, {1, n / 2, 0}, {n / 3, n - 1, 0}, {n - n/5 - 3, n, 0}, {5, n, 17}} {
		if err := want.sweep(adj, r[0], r[1], int(r[2])); err != nil {
			t.Fatalf("sweep: %v", err)
		}
	}
	for _, r := range [][2]graph.NodeID{{-1, 5}, {5, 4}, {0, n + 1}} {
		before := p.faults()
		called := false
		err := adj.SweepEdges(r[0], r[1], func(graph.NodeID, []graph.NodeID, []float64) bool {
			called = true
			return true
		})
		if err == nil || called {
			t.Fatalf("sweep [%d,%d): err %v, callback called %v", r[0], r[1], err, called)
		}
		if p.Faults != nil && p.faults()-before != 1 {
			t.Fatalf("sweep [%d,%d) latched %d faults, want 1", r[0], r[1], p.faults()-before)
		}
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := want.CheckCursor(adj, VisitOrders(want.n, int64(w))["random"]); err != nil {
				t.Errorf("concurrent cursor %d: %v", w, err)
			}
			if err := want.CheckSweep(adj, 0, n); err != nil {
				t.Errorf("concurrent sweep %d: %v", w, err)
			}
		}()
	}
	wg.Wait()
	p.requireNoPins(t, "concurrent readers")
	if f := p.faults(); p.Faults != nil && f != 3 {
		t.Fatalf("%d faults latched, want only the 3 of the bad ranges", f)
	}

	if p.Fail != nil {
		checkFaults(t, want, open)
	}
}

// checkFaults injects a read fault under a cursor read and under a sweep,
// each on a freshly opened view.
func checkFaults(t *testing.T, want *Oracle, open Opener) {
	t.Helper()
	u := graph.NodeID(0)
	for int(u) < want.n && len(want.out[u]) == 0 {
		u++
	}
	if int(u) == want.n {
		return // no row to fail
	}
	adj, p := open(t)
	p.Fail()
	cur := adj.Cursor()
	ids, ws := cur.Neighbors(u)
	nIDs, nWs := len(ids), len(ws)
	cur.Close()
	if nIDs != 0 || nWs != 0 {
		t.Fatalf("faulted cursor read of node %d returned %d ids / %d weights, want an empty row", u, nIDs, nWs)
	}
	if f := p.Faults(); f != 1 {
		t.Fatalf("faulted cursor read latched %d faults, want 1", f)
	}
	p.requireNoPins(t, "faulted cursor")

	adj, p = open(t)
	p.Fail()
	var rowErr error
	rows := 0
	err := adj.SweepEdges(0, graph.NodeID(want.n), func(v graph.NodeID, ids []graph.NodeID, ws []float64) bool {
		if e := want.CheckRow(v, ids, ws, true); e != nil && rowErr == nil {
			rowErr = e
		}
		rows++
		return true
	})
	if err == nil || rows == want.n || rowErr != nil {
		t.Fatalf("faulted sweep: err %v after %d of %d rows (bad row: %v)", err, rows, want.n, rowErr)
	}
	if f := p.Faults(); f != 1 {
		t.Fatalf("faulted sweep latched %d faults, want 1", f)
	}
}

func (p *Probe) faults() uint64 {
	if p.Faults == nil {
		return 0
	}
	return p.Faults()
}

func (p *Probe) requireNoPins(t *testing.T, after string) {
	t.Helper()
	if p.Pins != nil {
		if pins := p.Pins(); pins != 0 {
			t.Fatalf("%d frames pinned after %s", pins, after)
		}
	}
}

// VisitOrders returns the ascending, descending and a seeded random order
// over [0,n), keyed by those names.
func VisitOrders(n int, seed int64) map[string][]graph.NodeID {
	asc, desc := make([]graph.NodeID, n), make([]graph.NodeID, n)
	for i := range asc {
		asc[i], desc[i] = graph.NodeID(i), graph.NodeID(n-1-i)
	}
	random := append([]graph.NodeID(nil), asc...)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	return map[string][]graph.NodeID{"ascending": asc, "descending": desc, "random": random}
}

// CheckCursor reads the rows of order through one cursor of adj, every
// third read ids-only, and returns the first that differs from o's.
func (o *Oracle) CheckCursor(adj graph.Adjacency, order []graph.NodeID) error {
	cur := adj.Cursor()
	defer cur.Close()
	for i, u := range order {
		var err error
		if i%3 == 0 {
			err = o.CheckRow(u, cur.NeighborIDs(u), nil, false)
		} else {
			ids, ws := cur.Neighbors(u)
			err = o.CheckRow(u, ids, ws, true)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckSweep sweeps [lo,hi) of adj and returns the first departure from
// o's rows: a row out of order or differing, or a wrong row count.
func (o *Oracle) CheckSweep(adj graph.Adjacency, lo, hi graph.NodeID) error {
	return o.sweep(adj, lo, hi, 0)
}

// sweep is CheckSweep stopping after stopAfter rows when positive.
func (o *Oracle) sweep(adj graph.Adjacency, lo, hi graph.NodeID, stopAfter int) error {
	wantRows := int(hi - lo)
	if stopAfter > 0 {
		wantRows = min(wantRows, stopAfter)
	}
	next, rows := lo, 0
	var rowErr error
	err := adj.SweepEdges(lo, hi, func(u graph.NodeID, ids []graph.NodeID, ws []float64) bool {
		if u != next {
			rowErr = fmt.Errorf("emitted node %d, expected %d", u, next)
			return false
		}
		next++
		rows++
		if rowErr = o.CheckRow(u, ids, ws, true); rowErr != nil {
			return false
		}
		return stopAfter <= 0 || rows < stopAfter
	})
	switch {
	case err != nil:
		return fmt.Errorf("[%d,%d): %v", lo, hi, err)
	case rowErr != nil:
		return fmt.Errorf("[%d,%d): %v", lo, hi, rowErr)
	case rows != wantRows:
		return fmt.Errorf("[%d,%d): %d rows emitted, want %d", lo, hi, rows, wantRows)
	}
	return nil
}

// CheckRow returns an error unless (ids, ws) is o's row u bit for bit;
// weights false skips the weights (an ids-only read).
func (o *Oracle) CheckRow(u graph.NodeID, ids []graph.NodeID, ws []float64, weights bool) error {
	row := o.out[u]
	if len(ids) != len(row) || weights && len(ws) != len(row) {
		return fmt.Errorf("node %d: %d ids / %d weights, want %d", u, len(ids), len(ws), len(row))
	}
	for i, e := range row {
		if ids[i] != e.To || weights && math.Float64bits(ws[i]) != math.Float64bits(e.Weight) {
			return fmt.Errorf("node %d entry %d differs: id %d, want %d/%v", u, i, ids[i], e.To, e.Weight)
		}
	}
	return nil
}
