package storage

import "testing"

// TestHotRangesRanking: the buckets a workload hammers come back first,
// scored by access count, and untouched buckets never appear.
func TestHotRangesRanking(t *testing.T) {
	pool, ids := partitionFile(t, 64, 8)
	// ids[40] lives ~5 buckets away from ids[0] (8 pages per bucket), so
	// the two loops heat two distinct buckets unequally.
	for i := 0; i < 20; i++ {
		touch(t, pool, ids[40])
	}
	for i := 0; i < 5; i++ {
		touch(t, pool, ids[0])
	}
	hot := pool.HotRanges(10)
	if len(hot) < 2 {
		t.Fatalf("expected >= 2 hot buckets, got %d: %+v", len(hot), hot)
	}
	if hot[0].Score < hot[1].Score {
		t.Fatalf("hot ranges not sorted by score: %+v", hot)
	}
	// The hottest bucket must cover ids[40] and carry (at least) its 20
	// accesses; the runner-up covers ids[0].
	in := func(hr HotRange, id PageID) bool {
		return id >= hr.First && id < hr.First+PageID(hr.Pages)
	}
	if !in(hot[0], ids[40]) || hot[0].Score < 20 {
		t.Fatalf("hottest bucket %+v does not reflect the 20 touches of page %d", hot[0], ids[40])
	}
	if !in(hot[1], ids[0]) {
		t.Fatalf("second bucket %+v does not cover page %d", hot[1], ids[0])
	}
	// k truncates, never pads.
	if got := pool.HotRanges(1); len(got) != 1 || !in(got[0], ids[40]) {
		t.Fatalf("HotRanges(1) = %+v", got)
	}
	if got := pool.HotRanges(0); got != nil {
		t.Fatalf("HotRanges(0) = %+v, want nil", got)
	}
}

// TestHeatDecay: a bucket the workload abandons cools down — after a full
// decay period its score is halved, so old heat cannot outrank current
// traffic forever.
func TestHeatDecay(t *testing.T) {
	pool, ids := partitionFile(t, 64, 8)
	for i := 0; i < 100; i++ {
		touch(t, pool, ids[0])
	}
	before := pool.HotRanges(1)
	if len(before) != 1 || before[0].Score < 100 {
		t.Fatalf("warmup: %+v", before)
	}
	// Drive a full decay period of accesses elsewhere.
	for i := 0; i < heatDecayEvery; i++ {
		touch(t, pool, ids[40])
	}
	hot := pool.HotRanges(10)
	var cooled float64
	for _, hr := range hot {
		if ids[0] >= hr.First && ids[0] < hr.First+PageID(hr.Pages) {
			cooled = hr.Score
		}
	}
	if cooled <= 0 || cooled > before[0].Score/2+1 {
		t.Fatalf("abandoned bucket score %v after decay, want <= %v", cooled, before[0].Score/2+1)
	}
}
