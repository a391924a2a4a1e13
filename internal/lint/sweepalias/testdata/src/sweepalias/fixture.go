// Package sweepalias exercises the sweepalias analyzer against a local
// stand-in for the graph.EdgeSweeper/Adjacency surface: row slices
// emitted to sweep callbacks (and read through row cursors) alias recycled
// buffers, so letting the slice header escape must be flagged while
// element copies stay quiet.
package sweepalias

import "sort"

type NodeID int32

type csr struct {
	keep  [][]NodeID
	lastW []float64
}

func (c *csr) SweepEdges(lo, hi NodeID, fn func(u NodeID, nbrs []NodeID, w []float64) bool) error {
	return nil
}

var globalRow []NodeID

func violations(c *csr, ch chan []NodeID) {
	var captured []NodeID
	rows := make([][]NodeID, 0)
	_ = c.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
		captured = nbrs                     // want `row slice assigned to captured variable captured`
		rows = append(rows, nbrs)           // want `row slice assigned to captured variable rows`
		c.lastW = w                         // want `row slice stored through c\.lastW`
		ch <- nbrs                          // want `row slice sent on a channel`
		head := nbrs[:1]                    // a local reslice still aliases...
		c.keep[0] = head                    // want `row slice stored through c\.keep\[0\]`
		_ = []any{nbrs}                     // want `row slice stored in a composite literal`
		go func(r []NodeID) { _ = r }(nbrs) // want `row slice captured by a goroutine`
		return true
	})
	_ = captured
}

// namedCallback proves the `push := func(...)` kernel idiom is resolved
// through the variable.
func namedCallback(c *csr) {
	var sticky []NodeID
	push := func(u NodeID, nbrs []NodeID, w []float64) bool {
		sticky = nbrs[1:] // want `row slice assigned to captured variable sticky`
		return true
	}
	_ = c.SweepEdges(0, 10, push)
	_ = sticky
}

// compliant shows the documented patterns: reading values, copying
// elements out, accumulating scalars.
func compliant(c *csr, next []float64) {
	var sum float64
	dst := make([]NodeID, 0, 64)
	_ = c.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
		for i, v := range nbrs {
			next[v] += w[i]
		}
		sum += float64(len(nbrs))
		dst = append(dst, nbrs...) // element copy: safe
		local := nbrs              // local alias that never escapes
		_ = local
		return true
	})
	_ = sum
}

// pushAcc is an accumulator a worker goroutine feeds sweep rows to:
// AddRow copies row elements into private state, so passing the slices
// through is safe; retaining their headers on the struct is not.
type pushAcc struct {
	rows [][]NodeID
	sum  float64
}

func (a *pushAcc) AddRow(u NodeID, nbrs []NodeID, w []float64) {
	for i := range nbrs {
		a.sum += w[i] * float64(nbrs[i])
	}
}

// rangeWorkers is the goroutine-captured-accumulator idiom: each goroutine
// sweeps its own node range into a private accumulator and feeds it rows
// by value. Nothing here may be flagged.
func rangeWorkers(c *csr, ranges [][2]NodeID) {
	accs := make([]*pushAcc, len(ranges))
	done := make(chan int, len(ranges))
	for s := range ranges {
		accs[s] = &pushAcc{}
		go func(s int) {
			acc := accs[s]
			_ = c.SweepEdges(ranges[s][0], ranges[s][1], func(u NodeID, nbrs []NodeID, w []float64) bool {
				acc.AddRow(u, nbrs, w) // element copies into the captured accumulator: safe
				return true
			})
			done <- s
		}(s)
	}
	for range ranges {
		<-done
	}
}

// rangeWorkerViolations: the same shape, but the callback retains row
// headers on (or hands them to a goroutine through) the captured
// accumulator.
func rangeWorkerViolations(c *csr) {
	acc := &pushAcc{}
	go func() {
		_ = c.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
			acc.rows = append(acc.rows, nbrs) // want `row slice stored through acc\.rows`
			go acc.AddRow(u, nbrs, nil)       // want `row slice captured by a goroutine`
			return true
		})
	}()
}

// callbackWrites: sweep rows alias the sweep's block buffers or the CSR's
// own arrays; writing through them corrupts what every later sweep reads.
func callbackWrites(c *csr, scratch []NodeID) {
	_ = c.SweepEdges(0, 10, func(u NodeID, nbrs []NodeID, w []float64) bool {
		nbrs[0] = u                                                        // want `write into row nbrs\[0\]: the SweepEdges callback's rows alias`
		w[1] *= 2                                                          // want `write into row w\[1\]`
		head := nbrs[:2]                                                   // local reslice
		head[1]--                                                          // want `write into row head\[1\]`
		copy(w, []float64{1})                                              // want `copy into row w`
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) // want `sort\.Slice into row nbrs`
		copy(scratch, nbrs)                                                // copy OUT of a row: safe
		scratch[0] = nbrs[0]                                               // writing the caller's buffer: safe
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		return true
	})
}
