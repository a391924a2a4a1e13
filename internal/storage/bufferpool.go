package storage

import (
	"sort"
	"sync"
)

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

// Heat tracking: every Get — hit or miss — bumps a decayed access counter
// for the page's bucket (runs of 1<<heatShift consecutive pages, so the
// counters cover node ranges of the fixed-stride CSR runs, not individual
// pages). Every heatDecayEvery recorded accesses all buckets are halved,
// so the scores track the recent access mix instead of growing without
// bound: a region the workload has moved away from cools down within a
// few decay periods no matter how hot it once was. HotRanges exposes the
// top-k buckets; the gtree tiering promoter uses them to decide which
// page runs deserve pinned in-memory CSR fragments.
const (
	heatShift      = 3    // pages per heat bucket (8)
	heatDecayEvery = 8192 // recorded accesses between halvings
)

// HotRange is one hot page-bucket: Pages consecutive pages starting at
// First, with the bucket's current decayed access score.
type HotRange struct {
	First PageID
	Pages int
	Score float64
}

// PagePool is the page-pinning interface readers (blob, run, leaf) go
// through: the shared BufferPool itself, or a Partition view of it whose
// pins are accounted against a per-query reservation.
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
	// owner is the Partition whose Get loaded (or adopted) this frame, nil
	// for frames belonging to the shared remainder. While owner's resident
	// frame count is within its quota, other requesters may not evict this
	// frame — that reservation is what keeps one query's cold sweep from
	// flushing another's working set.
	owner *Partition
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
// pages outside the current working set (experiment E10).
//
// Two contracts here are machine-checked by `make lint` (cmd/gminevet):
// every Get/TryGet must have a Release reachable on all paths (or hand
// the pin to a cursor struct that owns it), every Partition a Close and
// every opened cursor a Close (the pinpair analyzer), and the warm
// Get/Release path itself is annotated //gmine:hotpath, so the hotalloc
// analyzer rejects new allocation in it — the intrusive LRU exists
// precisely to keep that path at zero allocations. The miss path is held
// to the same rule once the pool has grown to capacity: a load reuses the
// evicted frame and its buffer.
type BufferPool struct {
	mu sync.Mutex
	// cond is signaled when a frame becomes unpinned or free, protection
	// lapses, or a page load finishes.
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
	// reserved sums the quotas of open partitions (always ≤ cap-1, so at
	// least one frame stays up for grabs and no requester can starve).
	reserved int
	parts    []*Partition // open partitions, creation order

	// heat holds one decayed access counter per run of 1<<heatShift
	// consecutive pages, sized once at construction from the pager's page
	// count so the hot Get path never allocates. heatOps counts recorded
	// accesses toward the next halving.
	heat    []float64
	heatOps int
}

// NewBufferPool wraps pager with a pool holding up to capacity pages.
func NewBufferPool(pager *Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		pager:  pager,
		cap:    capacity,
		frames: make(map[PageID]*frame, capacity),
		heat:   make([]float64, int(pager.NumPages())>>heatShift+1),
	}
	bp.cond = sync.NewCond(&bp.mu)
	return bp
}

// recordHeat charges one access to page id's heat bucket (and the
// requesting partition's counter), halving all buckets when the decay
// period rolls over. Caller holds bp.mu. The halving is amortized: O(1)
// per access, one O(buckets) pass every heatDecayEvery accesses.
//
//gmine:hotpath
func (bp *BufferPool) recordHeat(id PageID, requester *Partition) {
	b := int(id) >> heatShift
	if b >= len(bp.heat) {
		b = len(bp.heat) - 1
	}
	if b < 0 {
		return
	}
	bp.heat[b]++
	if requester != nil {
		requester.heat++
	}
	bp.heatOps++
	if bp.heatOps >= heatDecayEvery {
		bp.heatOps = 0
		for i := range bp.heat {
			bp.heat[i] /= 2
		}
		for _, p := range bp.parts {
			p.heat /= 2
		}
	}
}

// HotRanges returns the k hottest page buckets by decayed access score,
// hottest first (ties by page id; buckets with zero score are never
// returned). The result describes recent access frequency per page run —
// the signal the tiering promoter ranks candidate CSR fragments by.
func (bp *BufferPool) HotRanges(k int) []HotRange {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if k <= 0 {
		return nil
	}
	idx := make([]int, 0, len(bp.heat))
	for i, s := range bp.heat {
		if s > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if bp.heat[idx[a]] != bp.heat[idx[b]] {
			return bp.heat[idx[a]] > bp.heat[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]HotRange, len(idx))
	for i, b := range idx {
		out[i] = HotRange{First: PageID(b << heatShift), Pages: 1 << heatShift, Score: bp.heat[b]}
	}
	return out
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

// evictableBy reports whether requester may evict fr. Caller holds bp.mu;
// fr is unpinned (it is in the LRU). Shared frames and the requester's own
// frames are always fair game; frames of another partition only once that
// partition has spilled past its quota.
func evictableBy(fr *frame, requester *Partition) bool {
	o := fr.owner
	return o == nil || o == requester || o.held > o.quota
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
// When every frame is pinned or reserved by concurrent readers, Get waits
// for a Release instead of failing, so a pool smaller than the momentary
// reader count degrades to serialized paging rather than spurious I/O
// errors (e.g. a tiny -pool with a wide extraction worker fan-out). The
// waiting is deadlock-free under one rule: never WAIT while pinned. A
// goroutine may call Get only while it holds no pin; a reader that keeps
// pages pinned across reads (RunCursor) takes further pins with TryGet,
// and when that reports it would have to wait, releases everything it
// holds before calling Get. The copy-out readers (blob, run, leaf) pin
// one page at a time and release it before the next Get. (Partition
// reservations cannot starve a waiter either: reserved ≤ cap-1, so once
// the pin holders move on at least one frame is evictable by anyone. And
// a loader never waits: it holds the loading frame across I/O only.)
//
//gmine:hotpath
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	data, _, err := bp.get(id, nil, true)
	return data, err
}

// TryGet pins page id like Get but never waits: when the page is not
// resident and every frame is pinned or protected, or the page is still
// being loaded by another goroutine, it returns ok=false with nothing
// pinned and no counter touched.
//
//gmine:hotpath
func (bp *BufferPool) TryGet(id PageID) ([]byte, bool, error) {
	return bp.get(id, nil, false)
}

// get is Get (wait) or TryGet (!wait) on behalf of requester (nil = the
// shared remainder). Hits and loads are attributed to the requester's
// counters and reservation.
//
//gmine:hotpath
func (bp *BufferPool) get(id PageID, requester *Partition, wait bool) ([]byte, bool, error) {
	bp.mu.Lock()
	if requester != nil && requester.closed {
		// Defensive: a straggler read after Close must not re-attribute
		// frames to a dead reservation; serve it from the shared remainder.
		requester = nil
	}
	var fr *frame
	for {
		if hit, ok := bp.frames[id]; ok {
			if hit.loading && !wait {
				bp.mu.Unlock()
				return nil, false, nil
			}
			data, err := bp.pinResident(hit, requester)
			bp.mu.Unlock()
			return data, err == nil, err
		}
		if fr = bp.takeFrame(requester); fr != nil {
			break
		}
		if !wait {
			bp.mu.Unlock()
			return nil, false, nil
		}
		// Every frame is pinned or protected: wait for a Release (or a
		// Partition.Close lifting protection), then re-check from scratch
		// (the wanted page may have been loaded meanwhile).
		bp.cond.Wait()
	}
	bp.recordHeat(id, requester)
	bp.stats.Misses++
	if requester != nil {
		requester.stats.Misses++
		requester.held++
	}
	fr.id, fr.owner, fr.pins, fr.loading = id, requester, 1, true
	bp.frames[id] = fr
	bp.mu.Unlock()

	err := bp.pager.ReadPageInto(id, fr.page)

	bp.mu.Lock()
	fr.loading = false
	if err != nil {
		// Unpublish, so the next Get of the page starts a fresh load. The
		// reservation goes back through fr.owner, not requester: a
		// Partition.Close that raced the load has already disowned the
		// frame and zeroed held.
		delete(bp.frames, id)
		if fr.owner != nil {
			fr.owner.held--
			fr.owner = nil
		}
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

// pinResident pins fr, which the caller found in bp.frames, for requester,
// waiting out an in-flight load first. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) pinResident(fr *frame, requester *Partition) ([]byte, error) {
	bp.recordHeat(fr.id, requester)
	bp.stats.Hits++
	if requester != nil {
		requester.stats.Hits++
		// Re-adopt shared frames into the requester's working set
		// while it has reservation to spare: a warm page a query
		// keeps coming back to deserves the query's protection.
		if fr.owner == nil && requester.held < requester.quota {
			fr.owner = requester
			requester.held++
		}
	}
	fr.pins++
	bp.lruRemove(fr)
	if fr.loading {
		bp.stats.LoadWaits++
		if requester != nil {
			requester.stats.LoadWaits++
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

// takeFrame returns a frame for requester to load a page into — off the
// free list, newly allocated while the pool is below capacity, else the
// LRU-most victim requester may evict — or nil when every frame is pinned
// or protected. Caller holds bp.mu.
//
//gmine:hotpath
func (bp *BufferPool) takeFrame(requester *Partition) *frame {
	if fr := bp.free; fr != nil {
		bp.free, fr.next = fr.next, nil
		return fr
	}
	if bp.nframes < bp.cap {
		bp.nframes++
		return newFrame(bp.pager.PageSize())
	}
	// Walk victims LRU-first, skipping frames protected by another
	// partition's reservation.
	for victim := bp.tail; victim != nil; victim = victim.prev {
		if !evictableBy(victim, requester) {
			continue
		}
		bp.lruRemove(victim)
		delete(bp.frames, victim.id)
		if victim.owner != nil {
			victim.owner.held--
		}
		bp.stats.Evictions++
		if requester != nil {
			requester.stats.Evictions++
		}
		return victim
	}
	return nil
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

// Reserved returns the frames currently reserved by open partitions.
func (bp *BufferPool) Reserved() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.reserved
}

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

// --- Partitions -----------------------------------------------------------

// Partition is a PagePool view of the pool with its own frame reservation:
// pages loaded (or re-hit) through the view are owned by it, and while the
// view owns no more frames than its quota those frames cannot be evicted
// by other requesters — only by the view itself. Frames beyond the quota
// spill into the shared remainder's economy and are fair game for anyone.
//
// The engine opens one partition per whole-graph query, so a cold
// PageRank sweeping the entire file can no longer flush a concurrent
// session's hot extraction working set: the sweep churns its own quota
// plus the unreserved remainder, and the other query's reserved frames
// survive. Close returns the reservation and demotes owned frames to
// shared; a Partition must not be used after Close.
type Partition struct {
	bp    *BufferPool
	quota int
	held  int // resident frames currently owned by this partition
	stats Stats
	// heat is the partition's decayed access counter: one increment per
	// Get through the view, halved on the pool's global decay ticks — the
	// per-query share of the pool-wide heat the tiering promoter reads.
	heat   float64
	closed bool
}

// Partition reserves up to frames frames for a new view. The request is
// clamped to what is still unreserved (keeping one frame always shared, so
// reservations can never starve other readers); a fully reserved pool
// yields a quota-0 view that still tracks per-query stats but enjoys no
// protection. frames <= 0 also yields a quota-0 view.
func (bp *BufferPool) Partition(frames int) *Partition {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	avail := bp.cap - 1 - bp.reserved
	if frames > avail {
		frames = avail
	}
	if frames < 0 {
		frames = 0
	}
	p := &Partition{bp: bp, quota: frames}
	bp.reserved += frames
	bp.parts = append(bp.parts, p)
	return p
}

// Get pins page id through the partition (PagePool). After Close the view
// degrades to the shared remainder (checked under the pool lock).
//
//gmine:hotpath
func (p *Partition) Get(id PageID) ([]byte, error) {
	data, _, err := p.bp.get(id, p, true)
	return data, err
}

// TryGet is the non-waiting Get through the partition (PagePool).
//
//gmine:hotpath
func (p *Partition) TryGet(id PageID) ([]byte, bool, error) {
	return p.bp.get(id, p, false)
}

// Release unpins page id (PagePool).
//
//gmine:hotpath
func (p *Partition) Release(id PageID) { p.bp.Release(id) }

// Close returns the reservation to the pool and demotes the partition's
// frames to the shared remainder (they stay resident and LRU-ordered, just
// unprotected). Idempotent.
func (p *Partition) Close() {
	bp := p.bp
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	bp.reserved -= p.quota
	p.quota = 0
	for _, fr := range bp.frames {
		if fr.owner == p {
			fr.owner = nil
		}
	}
	p.held = 0
	for i, q := range bp.parts {
		if q == p {
			bp.parts = append(bp.parts[:i], bp.parts[i+1:]...)
			break
		}
	}
	// Frames protected by this partition are now evictable; wake waiters.
	bp.cond.Broadcast()
}

// PartitionStats snapshots one partition's reservation and counters.
// Heat is the partition's decayed access counter (see Partition.heat).
type PartitionStats struct {
	Quota int
	Held  int // resident frames the partition currently owns
	Heat  float64
	Stats
}

// Stats returns a snapshot of the partition's counters.
func (p *Partition) Stats() PartitionStats {
	p.bp.mu.Lock()
	defer p.bp.mu.Unlock()
	return PartitionStats{Quota: p.quota, Held: p.held, Heat: p.heat, Stats: p.stats}
}

// Partitions snapshots the open partitions in creation order — the
// observability hook behind the per-partition /healthz stats.
func (bp *BufferPool) Partitions() []PartitionStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]PartitionStats, len(bp.parts))
	for i, p := range bp.parts {
		out[i] = PartitionStats{Quota: p.quota, Held: p.held, Heat: p.heat, Stats: p.stats}
	}
	return out
}
