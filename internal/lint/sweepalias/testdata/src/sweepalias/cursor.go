package sweepalias

// Row cursors (graph.RowCursor): a read returns a row that aliases CSR
// storage or the caller's reused buffers and is valid only until the next
// read on the same cursor, so the header must stay in a local — matched
// on *Cursor receiver types.

type RowCursor interface {
	Neighbors(u NodeID, nbrBuf []NodeID, wBuf []float64) ([]NodeID, []float64)
	NeighborIDs(u NodeID, nbrBuf []NodeID) []NodeID
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
	globalRow = cur.NeighborIDs(1, nil)              // want `cursor NeighborIDs result stored in package-level variable globalRow`
	d.frontier = cur.NeighborIDs(2, nil)             // want `cursor NeighborIDs result stored through d\.frontier`
	d.frontier, c.lastW = cur.Neighbors(3, nil, nil) // want `cursor Neighbors result stored through d\.frontier` `cursor Neighbors result stored through c\.lastW`
	ch <- cur.NeighborIDs(4, nil)                    // want `cursor NeighborIDs result sent on a channel`
	d.rows = append(d.rows, cur.NeighborIDs(5, nil)) // want `cursor NeighborIDs result appended as a slice header`
	d.rows[0], _ = c.Neighbors(6)                    // not a cursor read: quiet
}

func cursorCompliant(c *csr, score []float64) {
	cur := c.Cursor()
	defer cur.Close()
	var nbrs []NodeID
	var ws []float64
	keep := make([]NodeID, 0, 16)
	for u := NodeID(0); u < 10; u++ {
		nbrs, ws = cur.Neighbors(u, nbrs[:0], ws[:0]) // locals, reused: compliant
		for i, v := range nbrs {
			score[v] += ws[i]
		}
		nbrs = cur.NeighborIDs(u, nbrs[:0])
		keep = append(keep, nbrs...) // element copy: safe
	}
	_ = keep
}
