package server

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"sync"
)

// CacheStats is a snapshot of result-cache counters, exposed on /healthz
// so interactive clients (and the acceptance tests) can observe hits.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Coalesced counts requests that missed while an identical build was
	// already in flight and were served the leader's result (singleflight).
	Coalesced uint64 `json:"coalesced"`
}

// resultCache is a bounded LRU keyed by canonicalized request parameters,
// and its own singleflight. Repeated interactive queries (the same
// extraction re-run while the user pans, the same scene re-fetched on
// window resize) skip the RWR solve and layout entirely and serve the
// previously rendered body; concurrent identical misses run one build.
// A key whose build is running is an entry with no LRU slot: it counts
// toward neither Entries nor capacity until its body is stored.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // stored entries, front = most recently used
	items map[string]*cacheEntry
	stats CacheStats
}

// cacheEntry is one key's stored body, or its build in flight. The leader
// writes the result fields before it closes done; a stored entry never
// changes again, so a hit or a follower reads them without the lock. ok
// distinguishes a completed build from a leader that never finished (its
// build panicked and the deferred finish ran during unwinding), so
// followers are never served a zero-value "success".
type cacheEntry struct {
	key       string
	el        *list.Element // nil while the build runs or failed
	done      chan struct{}
	ok        bool
	body      []byte
	ctyp      string
	errStatus int
	err       error
}

// newResultCache returns a cache bounded to capacity entries (min 1).
func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*cacheEntry, capacity),
	}
}

// lookup resolves key in one critical section. A stored body is a "hit"
// (counted and LRU-refreshed); a running build is "coalesced" (the caller
// waits on its done); otherwise the caller becomes the "miss" leader of a
// new in-flight entry and must finish it. Misses count leaders, so the
// counter means "builds run", not "lookups that raced".
func (c *resultCache) lookup(key string) (*cacheEntry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		if e.el == nil {
			return e, "coalesced"
		}
		c.stats.Hits++
		c.ll.MoveToFront(e.el)
		return e, "hit"
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.items[key] = e
	c.stats.Misses++
	return e, "miss"
}

// finish publishes a leader's result: a successful body takes the front
// LRU slot, evicting the least recently used entries over capacity; a
// failed or panicked build leaves the cache, so the next caller retries.
func (c *resultCache) finish(e *cacheEntry) {
	c.mu.Lock()
	if e.ok && e.err == nil {
		e.el = c.ll.PushFront(e)
		for c.ll.Len() > c.cap {
			back := c.ll.Remove(c.ll.Back()).(*cacheEntry)
			delete(c.items, back.key)
			c.stats.Evictions++
		}
	} else {
		delete(c.items, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// coalesced records one singleflight follower served by a shared build.
func (c *resultCache) coalesced() {
	c.mu.Lock()
	c.stats.Coalesced++
	c.mu.Unlock()
}

// reset drops every stored entry and zeroes the counters (used by
// benchmarks to measure cold latency). Builds in flight stay joinable.
func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		delete(c.items, el.Value.(*cacheEntry).key)
	}
	c.ll.Init()
	c.stats = CacheStats{}
}

// snapshot returns the current counters.
func (c *resultCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Capacity = c.cap
	s.Entries = c.ll.Len()
	return s
}

// cachedResult serves key from the result cache, or runs build as the
// key's one in-flight build, caches a successful body and returns it. The
// returned state is "hit" (cache), "miss" (this caller ran the build) or
// "coalesced" (an identical build was already in flight; this caller
// waited and shares its result). Coalescing is what stops a cache
// stampede: N concurrent misses on one key cost one build, not N. A
// follower stops waiting when ctx ends and returns ctx's error.
func (s *Server) cachedResult(ctx context.Context, key string,
	build func() (body []byte, ctyp string, errStatus int, err error)) (
	body []byte, ctyp, state string, errStatus int, err error) {
	e, state := s.cache.lookup(key)
	switch state {
	case "hit":
		return e.body, e.ctyp, state, 0, nil
	case "coalesced":
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, "", state, statusOf(ctx.Err(), 0), ctx.Err()
		}
		s.cache.coalesced()
		if !e.ok {
			// The leader never completed (its build panicked); don't hand
			// out a zero-value body as a 200.
			return nil, "", state, http.StatusInternalServerError,
				fmt.Errorf("shared in-flight build did not complete")
		}
		return e.body, e.ctyp, state, e.errStatus, e.err
	}
	defer s.cache.finish(e)
	body, ctyp, errStatus, err = build()
	e.body, e.ctyp, e.errStatus, e.err, e.ok = body, ctyp, errStatus, err, true
	return body, ctyp, state, errStatus, err
}
