package pinpair

// Row cursors keep pages pinned between reads, so an opened cursor is an
// obligation like a pinned page: Close on every path. Stand-ins for
// graph.RowCursor / graph.Adjacency and for the stack cursors behind the
// one-shot row reads.

type RowCursor interface {
	NeighborIDs(u int32) []int32
	Close()
}

type adjacency struct{}

func (a *adjacency) Cursor() RowCursor { return nil }

func cursorNeverClosed(a *adjacency) int {
	cur := a.Cursor() // want `cursor opened here is never Closed in cursorNeverClosed`
	return len(cur.NeighborIDs(0))
}

func cursorLeakOnEarlyReturn(a *adjacency, n int) error {
	cur := a.Cursor() // want `cursor opened here can reach the return at line \d+ without Close`
	for u := 0; u < n; u++ {
		if len(cur.NeighborIDs(int32(u))) == 0 {
			return errBoom // leak: the cursor's pages stay pinned
		}
	}
	cur.Close()
	return nil
}

func cursorCompliant(a *adjacency, n int) error {
	cur := a.Cursor()
	defer cur.Close()
	for u := 0; u < n; u++ {
		if len(cur.NeighborIDs(int32(u))) == 0 {
			return errBoom
		}
	}
	return nil
}

// walk borrows the cursor; its caller still owns the Close.
func walk(cur RowCursor, n int) {
	for u := 0; u < n; u++ {
		cur.NeighborIDs(int32(u))
	}
}

// cursorLent: passing a cursor to a callee lends it, it does not hand
// over the Close.
func cursorLent(a *adjacency) {
	cur := a.Cursor() // want `cursor opened here is never Closed in cursorLent`
	walk(cur, 4)
}

// cursorInClosure: function literals are checked as functions of their
// own, so the extraction's expand closure is covered.
func cursorInClosure(a *adjacency) func() error {
	leaky := func() error {
		cur := a.Cursor() // want `cursor opened here is never Closed in this func literal`
		walk(cur, 4)
		return nil
	}
	_ = leaky
	return func() error {
		cur := a.Cursor()
		defer cur.Close()
		walk(cur, 4)
		return nil
	}
}

// cursorEscapes hands the open cursor to its caller: ownership transfers.
func cursorEscapes(a *adjacency) RowCursor {
	cur := a.Cursor()
	return cur
}

// stackCursor mirrors gtree's pagedCursor: a value opened in place whose
// slots own the pages they pin.
type stackCursor struct {
	pool *BufferPool
	page PageID
	data []byte
}

func (c *stackCursor) open(bp *BufferPool) { c.pool = bp }

func (c *stackCursor) Close() {
	if c.data != nil {
		c.pool.Release(c.page)
		c.data = nil
	}
}

// pin takes a page without waiting and parks it in the cursor: storing
// the payload in a field hands the pin to the struct, whose Close
// releases it, so neither acquisition is reported here.
func (c *stackCursor) pin(id PageID) error {
	data, ok, err := c.pool.TryGet(id)
	if err != nil {
		return err
	}
	if !ok {
		c.Close()
		if data, err = c.pool.Get(id); err != nil {
			return err
		}
	}
	c.page, c.data = id, data
	return nil
}

func tryGetLeak(bp *BufferPool, id PageID) int {
	data, ok, _ := bp.TryGet(id) // want `page pinned by bp\.Get\(id\) is never Released`
	if !ok {
		return 0
	}
	return len(data)
}

func oneShotCompliant(bp *BufferPool, id PageID) error {
	var c stackCursor
	c.open(bp)
	err := c.pin(id)
	c.Close()
	return err
}

func oneShotLeak(bp *BufferPool, id PageID) error {
	var c stackCursor
	c.open(bp) // want `cursor opened here is never Closed in oneShotLeak`
	return c.pin(id)
}
