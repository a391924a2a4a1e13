package sweepalias

import (
	"slices"
	"sort"
)

// Row cursors (graph.RowCursor): a read returns a row that aliases CSR
// storage, a cursor-owned buffer or a pinned pool frame and is valid only
// until the next read on the same cursor, so the header must stay in a
// local — matched on *Cursor receiver types — and nothing may be written
// through it.

type RowCursor interface {
	Neighbors(u NodeID) ([]NodeID, []float64)
	NeighborIDs(u NodeID) []NodeID
	Close()
}

func (c *csr) Cursor() RowCursor { return nil }

// Neighbors is the one-argument read of the concrete CSR: not a cursor
// read, never flagged.
func (c *csr) Neighbors(u NodeID) ([]NodeID, []float64) { return nil, nil }

type pathDP struct {
	frontier []NodeID
	rows     [][]NodeID
}

func cursorViolations(c *csr, d *pathDP, ch chan []NodeID) {
	cur := c.Cursor()
	defer cur.Close()
	globalRow = cur.NeighborIDs(1)              // want `cursor NeighborIDs result stored in package-level variable globalRow`
	d.frontier = cur.NeighborIDs(2)             // want `cursor NeighborIDs result stored through d\.frontier`
	d.frontier, c.lastW = cur.Neighbors(3)      // want `cursor Neighbors result stored through d\.frontier` `cursor Neighbors result stored through c\.lastW`
	ch <- cur.NeighborIDs(4)                    // want `cursor NeighborIDs result sent on a channel`
	d.rows = append(d.rows, cur.NeighborIDs(5)) // want `cursor NeighborIDs result appended as a slice header`
	d.rows[0], _ = c.Neighbors(6)               // not a cursor read: quiet
}

func cursorCompliant(c *csr, score []float64) {
	cur := c.Cursor()
	defer cur.Close()
	var nbrs []NodeID
	var ws []float64
	keep := make([]NodeID, 0, 16)
	for u := NodeID(0); u < 10; u++ {
		nbrs, ws = cur.Neighbors(u) // locals: compliant
		for i, v := range nbrs {
			score[v] += ws[i]
		}
		nbrs = cur.NeighborIDs(u)
		keep = append(keep, nbrs...) // element copy: safe
	}
	_ = keep
}

// cursorWrites: a cursor row may be a view of a pinned pool frame, so a
// write through it corrupts the page for every query.
func cursorWrites(c *csr, score []float64) {
	cur := c.Cursor()
	defer cur.Close()
	nbrs := cur.NeighborIDs(1)
	nbrs[0] = 7                                                        // want `write into row nbrs\[0\]: a cursor row may alias a pinned buffer-pool frame`
	nbrs[1] += 2                                                       // want `write into row nbrs\[1\]`
	nbrs[2]++                                                          // want `write into row nbrs\[2\]`
	tail := nbrs[1:]                                                   // a local reslice is the row too
	tail[0] = 3                                                        // want `write into row tail\[0\]`
	copy(nbrs, []NodeID{1, 2})                                         // want `copy into row nbrs`
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) // want `sort\.Slice into row nbrs`
	slices.Sort(tail)                                                  // want `slices\.Sort into row tail`
	slices.Reverse(nbrs[:2])                                           // want `slices\.Reverse into row nbrs\[:2\]`
	ids, ws := cur.Neighbors(2)
	ws[0] = 1.5               // want `write into row ws\[0\]`
	copy(ws, score)           // want `copy into row ws`
	cur.NeighborIDs(3)[0] = 1 // want `write into row cur\.NeighborIDs\(3\)\[0\]`
	_ = ids
}

// cursorReadsCompliant: reading rows, copying their elements out and
// sorting the copy are all fine; so is writing a local that never held a
// row, or a slice indexed BY row values.
func cursorReadsCompliant(c *csr, score []float64) {
	cur := c.Cursor()
	defer cur.Close()
	nbrs, ws := cur.Neighbors(1)
	own := make([]NodeID, len(nbrs))
	copy(own, nbrs) // copy out of a row: safe
	own[0] = 9
	slices.Sort(own)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	for i, v := range nbrs {
		score[v] += ws[i]
	}
	buf := append([]NodeID(nil), cur.NeighborIDs(2)...)
	buf[0] = 4
	_ = slices.Contains(nbrs, 3) // read-only helper
}
