package storage

import (
	"path/filepath"
	"sync"
	"testing"
)

// partitionFile creates a page file with n data pages and returns a pool
// of the given capacity over it plus the data page ids.
func partitionFile(t *testing.T, pages, capacity int) (*BufferPool, []PageID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.gmine")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WritePage(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return NewBufferPool(p, capacity), ids
}

// touch pins and immediately releases a page through pp.
func touch(t *testing.T, pp PagePool, id PageID) {
	t.Helper()
	if _, err := pp.Get(id); err != nil {
		t.Fatal(err)
	}
	pp.Release(id)
}

// TestPartitionConcurrentSweeps: many concurrent sweeps, each pinning
// through its own counted view, over one small pool stay deadlock-free,
// serve correct data (run with -race), and between them account for every
// pin the pool counted.
func TestPartitionConcurrentSweeps(t *testing.T) {
	pool, ids := partitionFile(t, 32, 4)
	views := make([]*CountedPool, 8)
	for w := range views {
		views[w] = pool.Counted()
	}
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := views[w]
			for pass := 0; pass < 5; pass++ {
				for i, id := range ids {
					data, err := p.Get(id)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if data[0] != byte(i) {
						t.Errorf("worker %d: page %d holds %d", w, i, data[0])
						p.Release(id)
						return
					}
					p.Release(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if res := pool.Resident(); res > pool.Capacity() {
		t.Fatalf("resident %d exceeds capacity %d", res, pool.Capacity())
	}
	var sum Stats
	for _, v := range views {
		st := v.Stats()
		if st.Hits+st.Misses != 5*uint64(len(ids)) {
			t.Fatalf("view counted %d pins, want %d", st.Hits+st.Misses, 5*len(ids))
		}
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.LoadWaits += st.LoadWaits
	}
	if st := pool.Stats(); sum != st {
		t.Fatalf("views counted %+v, pool %+v", sum, st)
	}
	if pins := pool.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned", pins)
	}
}
