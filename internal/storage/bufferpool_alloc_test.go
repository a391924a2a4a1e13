package storage

import "testing"

// TestBufferPoolWarmPathAllocationFree guards the pin hot path the paged
// sweep kernels sit on: once a page is resident, Get/Release must not
// allocate — directly on the pool and through a query's CountedPool (the
// per-query accounting the trace instrumentation reads is plain counter
// arithmetic, so routing pins through a counted view must stay free too).
// Observability reads these counters at scrape/release time; this test
// pins that the instrumented path itself added no per-pin work.
func TestBufferPoolWarmPathAllocationFree(t *testing.T) {
	bp, ids := partitionFile(t, 4, 4)
	for _, id := range ids {
		touch(t, bp, id) // fault everything in: measurements below are warm hits
	}

	id := ids[0]
	if allocs := testing.AllocsPerRun(200, func() {
		buf, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
		bp.Release(id)
	}); allocs > 0 {
		t.Errorf("warm BufferPool Get/Release allocates %.2f per op, want 0", allocs)
	}

	part := bp.Counted()
	if allocs := testing.AllocsPerRun(200, func() {
		buf, err := part.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
		part.Release(id)
	}); allocs > 0 {
		t.Errorf("warm CountedPool Get/Release allocates %.2f per op, want 0", allocs)
	}

	st := part.Stats()
	if st.Hits == 0 {
		t.Fatal("counted view recorded no hits — warm path not exercised")
	}
}
