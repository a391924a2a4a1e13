package storage

import "sync"

// Stats counts buffer pool activity; read with BufferPool.Stats.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// LoadWaits counts the Gets that found their page being loaded by
	// another goroutine and waited for that load instead of reading the
	// page again. Each is also a Hit (the page was found in the pool).
	LoadWaits uint64
}

// PagePool is the page-pinning interface readers (blob, run cursor, leaf)
// go through: the shared BufferPool itself, or a CountedPool view of it that
// also charges its pins to one query's counters.
type PagePool interface {
	// Get returns the payload of page id, pinned until Release. It may
	// wait for a frame or for another goroutine's load of the same page,
	// so the caller must hold no other pin (see BufferPool.Get). The slice
	// is the pool's frame buffer and dies at Release: the next page loaded
	// into that frame overwrites it in place.
	Get(id PageID) ([]byte, error)
	// TryGet is Get that never waits: ok=false (nothing pinned) when the
	// page is not resident and no frame can be freed right now, or while
	// another goroutine is still loading it. It is the only way to take a
	// pin while holding another.
	TryGet(id PageID) (data []byte, ok bool, err error)
	// Release unpins page id; every slice Get/TryGet returned for that pin
	// is dead from here on.
	Release(id PageID)
}

type frame struct {
	id PageID
	// page is the frame's own buffer, a whole page (checksum trailer
	// included). It is allocated once, when the pool grows, and every page
	// the frame ever holds is read into it: eviction recycles the frame and
	// the buffer together.
	page []byte
	pins int
	// loading is set while the goroutine that missed reads the page into
	// the frame with bp.mu dropped. The frame is already published in
	// bp.frames (pinned by the loader), so a second Get of the page finds
	// it and waits for this load rather than starting another; err is the
	// load's failure, handed to those waiters.
	loading bool
	err     error
	// Intrusive LRU links, valid only while inLRU (the frame is unpinned
	// and evictable); next also chains the free list. Intrusive rather
	// than container/list so the hottest pool operations — hit, pin,
	// release — allocate nothing: a list.Element allocation per release
	// was the last per-call garbage on the zero-alloc row-read path.
	prev, next *frame
	inLRU      bool
}

// payload is what Get hands out: the page without its checksum trailer.
//
//gmine:hotpath
func (fr *frame) payload() []byte { return fr.page[:len(fr.page)-crcSize] }

// BufferPool caches page payloads with LRU eviction. Pages are pinned while
// handed out and must be released; only unpinned pages are evictable.
//
// GMine's interactive navigation reads the same sibling communities
// repeatedly; the pool is what makes a focus change touch the disk only for
// pages outside the current working set (experiment E10). It serves the
// reads that revisit pages — row cursors, leaves, labels and other blobs.
// Whole-graph sweeps are sequential scans that LRU cannot help, so they
// read the file directly (RunReader.Read) and never pass through here.
//
// Two contracts here are machine-checked by `make lint` (cmd/gminevet):
// every Get/TryGet must have a Release reachable on all paths (or hand
// the pin to a cursor struct that owns it) and every opened cursor a
// Close (the pinpair analyzer), and the warm Get/Release path itself is
// annotated //gmine:hotpath, so the hotalloc analyzer rejects new
// allocation in it — the intrusive LRU exists precisely to keep that path
// at zero allocations. The miss path is held to the same rule once the
// pool has grown to capacity: a load reuses the evicted frame and its
// buffer.
type BufferPool struct {
	mu sync.Mutex
	// cond is signaled when a frame becomes unpinned or free, or a page
	// load finishes.
	cond   *sync.Cond
	pager  *Pager
	cap    int
	frames map[PageID]*frame // resident and loading pages
	// nframes counts the frames allocated so far; the pool grows one frame
	// per miss until it reaches cap and only recycles from then on. free
	// chains (through next) the frames that are in neither frames nor a
	// getter's hands: those whose load failed.
	nframes int
	free    *frame
	// LRU of unpinned frames: head = most recent, tail = next eviction
	// victim.
	head, tail *frame
	stats      Stats
}

// NewBufferPool wraps pager with a pool holding up to capacity pages.
func NewBufferPool(pager *Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	// The pool never holds more frames than the file has pages, so a
	// capacity far past the file pre-sizes nothing for it.
	bp := &BufferPool{
		pager:  pager,
		cap:    capacity,
		frames: make(map[PageID]*frame, min(capacity, int(pager.NumPages()))),
	}
	bp.cond = sync.NewCond(&bp.mu)
	return bp
}

// lruPushFront marks fr most recently used. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) lruPushFront(fr *frame) {
	fr.prev = nil
	fr.next = bp.head
	if bp.head != nil {
		bp.head.prev = fr
	}
	bp.head = fr
	if bp.tail == nil {
		bp.tail = fr
	}
	fr.inLRU = true
}

// lruRemove unlinks fr from the eviction order. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) lruRemove(fr *frame) {
	if !fr.inLRU {
		return
	}
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
	fr.inLRU = false
}

// Get returns the payload of page id, pinning it. The returned slice is the
// pool's frame buffer itself: read-only, and dead at Release. Frames are
// recycled — the next page loaded into the frame is read straight over
// these bytes — so a slice (or any subslice of it) used after its Release
// silently reads some other page. Copy out what must outlive the pin.
//
// A miss takes a frame (a failed load's leftover, a new one while the pool
// is still growing to capacity, else the LRU victim, buffer and all),
// publishes it pinned and loading, and reads and verifies the page with
// the pool lock dropped: hits on other pages and other misses proceed
// during the I/O, including its retry back-off. A Get of the page being
// loaded waits for that one load and shares its outcome — bytes or error —
// rather than reading the page a second time.
//
// When every frame is pinned by concurrent readers, Get waits for a
// Release instead of failing, so a pool smaller than the momentary
// reader count degrades to serialized paging rather than spurious I/O
// errors (e.g. a tiny -pool with a wide extraction worker fan-out). The
// waiting is deadlock-free under one rule: never WAIT while pinned. A
// goroutine may call Get only while it holds no pin; a reader that keeps
// pages pinned across reads (RunCursor) takes further pins with TryGet,
// and when that reports it would have to wait, releases everything it
// holds before calling Get. The copy-out readers (blob, leaf) pin one
// page at a time and release it before the next Get. (A loader never
// waits: it holds the loading frame across I/O only.)
//
//gmine:hotpath
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	data, _, err := bp.get(id, nil, true)
	return data, err
}

// TryGet pins page id like Get but never waits: when the page is not
// resident and every frame is pinned, or the page is still being loaded
// by another goroutine, it returns ok=false with nothing pinned and no
// counter touched.
//
//gmine:hotpath
func (bp *BufferPool) TryGet(id PageID) ([]byte, bool, error) {
	return bp.get(id, nil, false)
}

// get is Get (wait) or TryGet (!wait). Every hit, miss, eviction and
// load wait is charged to the pool's counters and, when q is non-nil, to
// q too: a CountedPool's per-query counters, kept under bp.mu beside the
// pool's own.
//
//gmine:hotpath
func (bp *BufferPool) get(id PageID, q *Stats, wait bool) ([]byte, bool, error) {
	bp.mu.Lock()
	var fr *frame
	for {
		if hit, ok := bp.frames[id]; ok {
			if hit.loading && !wait {
				bp.mu.Unlock()
				return nil, false, nil
			}
			data, err := bp.pinResident(hit, q)
			bp.mu.Unlock()
			return data, err == nil, err
		}
		if fr = bp.takeFrame(q); fr != nil {
			break
		}
		if !wait {
			bp.mu.Unlock()
			return nil, false, nil
		}
		// Every frame is pinned: wait for a Release, then re-check from
		// scratch (the wanted page may have been loaded meanwhile).
		bp.cond.Wait()
	}
	bp.stats.Misses++
	if q != nil {
		q.Misses++
	}
	fr.id, fr.pins, fr.loading = id, 1, true
	bp.frames[id] = fr
	bp.mu.Unlock()

	err := bp.pager.ReadPageInto(id, fr.page)

	bp.mu.Lock()
	fr.loading = false
	if err != nil {
		// Unpublish, so the next Get of the page starts a fresh load.
		delete(bp.frames, id)
		fr.err = err
		bp.dropFailed(fr)
		bp.mu.Unlock()
		return nil, false, err
	}
	if fr.pins > 1 {
		bp.cond.Broadcast() // getters waiting on this load
	}
	bp.mu.Unlock()
	return fr.payload(), true, nil
}

// pinResident pins fr, which the caller found in bp.frames, waiting out an
// in-flight load first. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) pinResident(fr *frame, q *Stats) ([]byte, error) {
	bp.stats.Hits++
	if q != nil {
		q.Hits++
	}
	fr.pins++
	bp.lruRemove(fr)
	if fr.loading {
		bp.stats.LoadWaits++
		if q != nil {
			q.LoadWaits++
		}
		// The pin keeps fr from being recycled, so it is still this load's
		// frame when the loader's broadcast arrives.
		for fr.loading {
			bp.cond.Wait()
		}
		if err := fr.err; err != nil {
			bp.dropFailed(fr)
			return nil, err
		}
	}
	return fr.payload(), nil
}

// takeFrame returns a frame to load a page into — off the free list, newly
// allocated while the pool is below capacity, else the LRU victim — or nil
// when every frame is pinned. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) takeFrame(q *Stats) *frame {
	if fr := bp.free; fr != nil {
		bp.free, fr.next = fr.next, nil
		return fr
	}
	if bp.nframes < bp.cap {
		bp.nframes++
		return newFrame(bp.pager.PageSize())
	}
	victim := bp.tail
	if victim == nil {
		return nil
	}
	bp.lruRemove(victim)
	delete(bp.frames, victim.id)
	bp.stats.Evictions++
	if q != nil {
		q.Evictions++
	}
	return victim
}

// newFrame allocates a frame and its page buffer: the pool's growth step,
// paid at most cap times in its life and so kept off the hot path.
func newFrame(pageSize int) *frame {
	return &frame{page: make([]byte, pageSize)}
}

// dropFailed gives up one pin on fr, whose load failed and which the
// loader has already unpublished; the last of loader and waiters to let go
// puts the frame on the free list. Caller holds bp.mu.
func (bp *BufferPool) dropFailed(fr *frame) {
	fr.pins--
	if fr.pins == 0 {
		fr.err = nil
		fr.next, bp.free = bp.free, fr
	}
	// Wakes the load's waiters and, once the frame is free, getters
	// waiting for a frame.
	bp.cond.Broadcast()
}

// Release unpins page id. Fully unpinned pages become evictable (most
// recently used first to be kept) and wake any Get waiting for a frame.
//
//gmine:hotpath
func (bp *BufferPool) Release(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if fr.pins == 0 {
		bp.lruPushFront(fr)
		bp.cond.Broadcast()
	}
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters (used between experiment phases).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// Capacity returns the configured frame capacity.
func (bp *BufferPool) Capacity() int { return bp.cap }

// PinnedFrames returns the number of resident frames with a nonzero pin
// count. A quiescent pool reports 0; the chaos/cancellation tests assert
// exactly that after every aborted query, since a cancelled sweep that
// leaks a pin would deadlock eviction forever.
func (bp *BufferPool) PinnedFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}

// --- Per-query counting ---------------------------------------------------

// CountedPool is a PagePool view of the pool that charges every hit,
// miss, eviction and load wait of its pins to its own counters as well as
// to the pool's. The engine opens one per query, so a trace names what
// that query cost the pool even while other queries page concurrently.
// It changes nothing about what the pool caches or evicts, and it holds
// nothing to release beyond the pins themselves.
type CountedPool struct {
	bp    *BufferPool
	stats Stats // guarded by bp.mu
}

// Counted returns a new counting view of the pool with zeroed counters.
func (bp *BufferPool) Counted() *CountedPool { return &CountedPool{bp: bp} }

// Get pins page id through the view (PagePool).
//
//gmine:hotpath
func (c *CountedPool) Get(id PageID) ([]byte, error) {
	data, _, err := c.bp.get(id, &c.stats, true)
	return data, err
}

// TryGet is the non-waiting Get through the view (PagePool).
//
//gmine:hotpath
func (c *CountedPool) TryGet(id PageID) ([]byte, bool, error) {
	return c.bp.get(id, &c.stats, false)
}

// Release unpins page id (PagePool).
//
//gmine:hotpath
func (c *CountedPool) Release(id PageID) { c.bp.Release(id) }

// Stats returns a snapshot of the view's counters.
func (c *CountedPool) Stats() Stats {
	c.bp.mu.Lock()
	defer c.bp.mu.Unlock()
	return c.stats
}
