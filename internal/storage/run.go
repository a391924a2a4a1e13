package storage

import "fmt"

// Fixed-stride page runs: large arrays of same-sized elements stored in
// consecutive pages, with floor(PayloadSize/stride) whole elements per page
// (no element ever straddles a page boundary). Unlike the blob layer there
// is no length header, so the address of element i is pure arithmetic:
//
//	page   = first + i/perPage
//	offset = (i%perPage) * stride
//
// which is what lets a paged CSR read one node's neighbor range without
// touching the rest of the array — the substrate of the out-of-core query
// engine. Because the pager is append-only, runs written by WriteRun are
// always contiguous and addressed by their first PageID alone.

// RunPerPage returns how many stride-sized elements fit in one page.
func RunPerPage(stride, payloadSize int) int {
	if stride <= 0 {
		return 0
	}
	return payloadSize / stride
}

// RunPages returns how many pages a run of count elements occupies.
func RunPages(count, stride, payloadSize int) int {
	per := RunPerPage(stride, payloadSize)
	if per <= 0 || count <= 0 {
		return 0
	}
	return (count + per - 1) / per
}

// WriteRun appends data (len(data) must be a multiple of stride) as a new
// fixed-stride page run and returns its first page id. A run of zero
// elements occupies no pages and returns 0.
func WriteRun(p *Pager, data []byte, stride int) (PageID, error) {
	if stride <= 0 || stride > p.PayloadSize() {
		return 0, fmt.Errorf("storage: run stride %d out of range (payload %d)", stride, p.PayloadSize())
	}
	if len(data)%stride != 0 {
		return 0, fmt.Errorf("storage: run data %d bytes not a multiple of stride %d", len(data), stride)
	}
	perBytes := RunPerPage(stride, p.PayloadSize()) * stride
	var first PageID
	for off := 0; off < len(data); off += perBytes {
		end := off + perBytes
		if end > len(data) {
			end = len(data)
		}
		id, err := p.Allocate()
		if err != nil {
			return 0, err
		}
		if off == 0 {
			first = id
		}
		if err := p.WritePage(id, data[off:end]); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// RangeError reports an element range that does not lie inside a run —
// the caller asked for elements the run does not have. It is a typed
// error (match with errors.As) so callers can distinguish a bad request
// from an I/O fault: a RangeError means the lo/hi arithmetic upstream is
// wrong or the geometry it was derived from is corrupt, never that the
// disk misbehaved.
type RangeError struct {
	Lo, Hi int // requested element range [Lo,Hi)
	Count  int // elements in the run
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("storage: run range [%d,%d) out of bounds (count %d)", e.Lo, e.Hi, e.Count)
}

// RunReader reads element ranges of a fixed-stride page run two ways.
// Read copies a range straight from the file with one Pager.ReadPagesInto,
// bypassing the buffer pool: a whole-graph sweep is a sequential scan that
// LRU cannot help, and pinning it through the pool would only evict the
// pages the row cursors reread. A RunCursor pins pages through the
// reader's pool instead, for row reads that revisit them. Safe for
// concurrent use: Read keeps no state and the pool serializes page access.
type RunReader struct {
	pool    PagePool
	pager   *Pager
	first   PageID
	stride  int
	perPage int
	count   int
}

// NewRunReader wraps the run of count stride-sized elements starting at
// first. It validates that the run lies inside the file, so a corrupt
// superblock cannot direct reads past the end.
func NewRunReader(pool *BufferPool, first PageID, stride, count int) (*RunReader, error) {
	payload := pool.pager.PayloadSize()
	if stride <= 0 || stride > payload {
		return nil, fmt.Errorf("storage: run stride %d out of range (payload %d)", stride, payload)
	}
	if count < 0 {
		return nil, fmt.Errorf("storage: negative run length %d", count)
	}
	pages := RunPages(count, stride, payload)
	if count > 0 && (first == 0 || int64(first)+int64(pages) > int64(pool.pager.NumPages())) {
		return nil, fmt.Errorf("storage: run of %d pages at %d exceeds file (%d pages)",
			pages, first, pool.pager.NumPages())
	}
	return &RunReader{pool: pool, pager: pool.pager, first: first, stride: stride, perPage: RunPerPage(stride, payload), count: count}, nil
}

// PerPage returns how many elements each page of the run holds.
func (r *RunReader) PerPage() int { return r.perPage }

// Pages returns the number of pages the run occupies.
func (r *RunReader) Pages() int {
	if r.count <= 0 || r.perPage <= 0 {
		return 0
	}
	return (r.count + r.perPage - 1) / r.perPage
}

// WithPool returns a reader over the same run whose cursor pins go
// through p instead of the pool the reader was built with — the hook that
// lets a query read the shared on-disk structure through its own
// CountedPool, so its paging is accounted separately. The receiver is
// unchanged and both readers stay safe for concurrent use.
func (r *RunReader) WithPool(p PagePool) *RunReader {
	nr := *r
	nr.pool = p
	return &nr
}

// Read copies elements [lo,hi) into dst, which must hold (hi-lo)*stride
// bytes, and returns how many pages it read for them. The pages come
// straight from the file with one Pager.ReadPagesInto into *scratch, the
// caller's page buffer (grown here when too small, so one buffer serves a
// whole sweep), every checksum verified and no pool frame touched. A range
// outside the run fails with a *RangeError before any page is read: lo/hi
// come from callers doing offset arithmetic over persisted (possibly
// corrupt) geometry, and the explicit gate means a negative lo, an
// inverted range or an hi past the run can never reach the page math
// below, where lo<0 would index pages before the run and hi>count would
// read whatever follows it in the file.
//
//gmine:hotpath
func (r *RunReader) Read(lo, hi int, dst []byte, scratch *[]byte) (pages int, err error) {
	if lo < 0 || hi < lo || hi > r.count {
		return 0, &RangeError{Lo: lo, Hi: hi, Count: r.count}
	}
	if len(dst) < (hi-lo)*r.stride {
		return 0, fmt.Errorf("storage: run dst %d bytes, need %d", len(dst), (hi-lo)*r.stride)
	}
	if lo == hi {
		return 0, nil
	}
	first := lo / r.perPage
	pages = (hi-1)/r.perPage - first + 1
	size := r.pager.PageSize()
	if cap(*scratch) < pages*size {
		*scratch = make([]byte, pages*size)
	}
	buf := (*scratch)[:pages*size]
	if err := r.pager.ReadPagesInto(r.first+PageID(first), pages, buf); err != nil {
		return pages, err
	}
	out := 0
	for i := lo; i < hi; {
		pg := i / r.perPage
		j := min((pg+1)*r.perPage, hi) // first element past this page's part
		off := (pg-first)*size + (i-pg*r.perPage)*r.stride
		out += copy(dst[out:], buf[off:off+(j-i)*r.stride])
		i = j
	}
	return pages, nil
}

// cursorRuns is how many runs one RunCursor spans: the ids and weights of
// a persisted CSR are the only runs read row by row (its offsets are
// decoded once per store and read from memory).
const cursorRuns = 2

// RunCursor reads element spans of up to cursorRuns runs for ONE goroutine
// through the readers' buffer pool, and keeps the last page it touched in
// each run pinned between reads. A caller that walks a run roughly in
// order, either way — the key-path DP reads node rows in ascending id on
// one level and descending on the next, and a page holds a hundred of
// them — then pays the buffer pool one pin per page instead of one per
// read, and reads straight from the pinned frame with no copy-out. Holds
// tells such a caller which end of a span that crosses pages to start
// from, so a descending walk pins each page once too.
//
// Holding pins across reads is only deadlock-free under the pool's rule
// (BufferPool.Get): never wait while pinned. The cursor takes every pin
// with TryGet; when that would have to wait it first releases every page
// it holds, in all runs, and only then calls the waiting Get. A pool
// smaller than the number of open cursors therefore degrades to
// serialized paging — cursors keep trading frames — never to a deadlock.
// The same rule binds the caller: between Open and Close the goroutine
// must not pin through the pool any other way (blobs, leaves, a second
// cursor). RunReader.Read pins nothing, so a sweep may run meanwhile.
//
// The zero value is closed; Open it, and Close it on every path (the
// pinpair analyzer checks). A RunCursor may live on the stack.
type RunCursor struct {
	slots [cursorRuns]cursorSlot
	pins  int
}

// cursorSlot is one run of a cursor and the page it holds pinned, if any,
// with that page's element range [lo,hi): a Span inside it needs no
// division to find its page or offset.
type cursorSlot struct {
	r      *RunReader
	page   PageID
	lo, hi int
	data   []byte // the pinned frame's payload; nil = no pin held
}

// Open binds the cursor to runs (at most cursorRuns; Span addresses them
// by position). Nothing is pinned until the first Span.
func (c *RunCursor) Open(runs ...*RunReader) {
	*c = RunCursor{}
	for i, r := range runs {
		c.slots[i].r = r
	}
}

// Span returns the bytes of elements [lo, lo+n) of run k, where n >= 1 is
// as many of [lo,hi) as lie on lo's page. The bytes are the pinned pool
// frame: read-only, and valid only until the next Span or Close on this
// cursor (a Span on another run may have to drop this run's pin, and an
// unpinned frame is recycled: the bytes become some other page). A range
// outside the run fails with a *RangeError before any page is touched,
// exactly like RunReader.Read.
//
//gmine:hotpath
func (c *RunCursor) Span(k, lo, hi int) (b []byte, n int, err error) {
	s := &c.slots[k]
	r := s.r
	if lo < 0 || hi <= lo || hi > r.count {
		return nil, 0, &RangeError{Lo: lo, Hi: hi, Count: r.count}
	}
	if s.data == nil || lo < s.lo || lo >= s.hi {
		if err := c.pin(s, lo); err != nil {
			return nil, 0, err
		}
	}
	off := lo - s.lo
	n = min(hi, s.hi) - lo
	return s.data[off*r.stride : (off+n)*r.stride], n, nil
}

// Holds reports whether the cursor holds the page of element i of run k
// pinned, so a Span starting on that page takes no pin.
//
//gmine:hotpath
func (c *RunCursor) Holds(k, i int) bool {
	s := &c.slots[k]
	return s.data != nil && i >= s.lo && i < s.hi
}

// pin moves slot s to the page holding element i without ever waiting
// while pinned.
//
//gmine:hotpath
func (c *RunCursor) pin(s *cursorSlot, i int) error {
	r := s.r
	pool := r.pool
	if s.data != nil {
		pool.Release(s.page)
		s.data = nil
	}
	idx := i / r.perPage
	pg := r.first + PageID(idx)
	data, ok, err := pool.TryGet(pg)
	if err != nil {
		return err
	}
	if !ok {
		c.release()
		if data, err = pool.Get(pg); err != nil {
			return err
		}
	}
	c.pins++
	s.page, s.data = pg, data
	s.lo, s.hi = idx*r.perPage, min((idx+1)*r.perPage, r.count)
	return nil
}

// release unpins every page the cursor holds.
//
//gmine:hotpath
func (c *RunCursor) release() {
	for i := range c.slots {
		if s := &c.slots[i]; s.data != nil {
			s.r.pool.Release(s.page)
			s.data = nil
		}
	}
}

// Close unpins every page the cursor holds and returns how many pool pins
// it took since Open or the previous Close. The cursor stays bound to its
// runs and may be read again (it re-pins on demand); Close is idempotent.
//
//gmine:hotpath
func (c *RunCursor) Close() (pins int) {
	c.release()
	pins, c.pins = c.pins, 0
	return pins
}
