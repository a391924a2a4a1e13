package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestTryGetNeverWaits: TryGet pins like Get when the page is resident or
// a frame can be freed, and reports ok=false — pinning nothing, touching
// no counter — exactly when Get would have waited: for a
// frame, or for another goroutine's in-flight load of the page.
func TestTryGetNeverWaits(t *testing.T) {
	bp, ids := partitionFile(t, 4, 2)
	a, ok, err := bp.TryGet(ids[0]) // free frame: loads
	if err != nil || !ok || a[0] != 0 {
		t.Fatalf("TryGet into a free frame: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := bp.TryGet(ids[0]); !ok { // resident: second pin
		t.Fatal("TryGet of a resident page refused")
	}
	bp.Release(ids[0])
	if _, err := bp.Get(ids[1]); err != nil { // pool now full, both pinned
		t.Fatal(err)
	}
	before := bp.Stats()
	if data, ok, err := bp.TryGet(ids[2]); ok || err != nil || data != nil {
		t.Fatalf("TryGet with every frame pinned: data=%v ok=%v err=%v, want a refusal", data, ok, err)
	}
	if after := bp.Stats(); after != before {
		t.Fatalf("refused TryGet moved the counters: %+v -> %+v", before, after)
	}
	if pins := bp.PinnedFrames(); pins != 2 {
		t.Fatalf("%d frames pinned, want 2", pins)
	}
	bp.Release(ids[1]) // one frame evictable again
	if _, ok, err := bp.TryGet(ids[2]); !ok || err != nil {
		t.Fatalf("TryGet with an evictable frame: ok=%v err=%v", ok, err)
	}
	bp.Release(ids[2])
	bp.Release(ids[0])
	if pins := bp.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned", pins)
	}

	// A page another goroutine is still loading: waiting for that load
	// would be waiting, so TryGet refuses it the same way — while a hit on
	// a resident page and a miss on a third page go through beside the
	// parked load.
	m := newMissFixture(t, 4, 4)
	touch(t, m.pool, m.ids[0])
	release := m.gate.hold(m.off(1))
	done := make(chan error, 1)
	go func() {
		_, err := m.pool.Get(m.ids[1])
		done <- err
	}()
	<-m.gate.in

	before = m.pool.Stats()
	data, ok, err := m.pool.TryGet(m.ids[1])
	if ok || err != nil || data != nil {
		t.Fatalf("TryGet of a loading page: data=%v ok=%v err=%v, want a refusal", data, ok, err)
	}
	if after := m.pool.Stats(); after != before {
		t.Fatalf("refused TryGet moved the counters: %+v -> %+v", before, after)
	}
	if pins := m.pool.PinnedFrames(); pins != 1 {
		t.Fatalf("%d frames pinned, want only the loading one", pins)
	}
	if _, ok, err := m.pool.TryGet(m.ids[0]); !ok || err != nil { // hit beside the load
		t.Fatalf("TryGet hit during a load: ok=%v err=%v", ok, err)
	}
	m.pool.Release(m.ids[0])
	if _, ok, err := m.pool.TryGet(m.ids[2]); !ok || err != nil { // miss beside the load
		t.Fatalf("TryGet miss during a load: ok=%v err=%v", ok, err)
	}
	m.pool.Release(m.ids[2])

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.pool.TryGet(m.ids[1]); !ok {
		t.Fatal("TryGet refused a loaded page")
	}
	m.pool.Release(m.ids[1])
	m.pool.Release(m.ids[1])
	if pins := m.pool.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned", pins)
	}
}

// cursorRunsFile writes two runs shaped like the row-read half of a
// small CSR (4-byte ids, 8-byte weights; different lengths, so range
// errors name the run) and returns readers over them.
func cursorRunsFile(t *testing.T, capacity int) (*BufferPool, [cursorRuns]*RunReader, [cursorRuns][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cur.gmine")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	var firsts [cursorRuns]PageID
	var data [cursorRuns][]byte
	for i := range cursorShapes {
		stride, count := cursorShapes[i].stride, cursorShapes[i].count
		data[i] = make([]byte, stride*count)
		for j := range data[i] {
			data[i][j] = byte(i*53 + j*7)
		}
		if firsts[i], err = WriteRun(p, data[i], stride); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(p, capacity)
	var runs [cursorRuns]*RunReader
	for i, sh := range cursorShapes {
		if runs[i], err = NewRunReader(pool, firsts[i], sh.stride, sh.count); err != nil {
			t.Fatal(err)
		}
	}
	return pool, runs, data
}

// cursorShapes are the stride and length of cursorRunsFile's runs.
var cursorShapes = [cursorRuns]struct{ stride, count int }{{4, 301}, {8, 900}}

// readSpan reads elements [lo,hi) of run k through the cursor, span by
// span, the way a row decoder does.
func readSpan(t *testing.T, c *RunCursor, k, stride, lo, hi int) []byte {
	t.Helper()
	var out []byte
	for lo < hi {
		b, n, err := c.Span(k, lo, hi)
		if err != nil {
			t.Fatalf("run %d [%d,%d): %v", k, lo, hi, err)
		}
		if n < 1 || n > hi-lo || len(b) != n*stride {
			t.Fatalf("run %d [%d,%d): span of %d elements, %d bytes", k, lo, hi, n, len(b))
		}
		out = append(out, b...)
		lo += n
	}
	return out
}

// TestRunCursorSpansAndStickyPins: spans reproduce the run bytes for
// ranges inside a page and across pages; an in-order walk pins each page
// once, not once per read, and Holds reports exactly the elements of the
// held page; ranges outside the run are RangeErrors that touch no page;
// Close drops every pin and is idempotent.
func TestRunCursorSpansAndStickyPins(t *testing.T) {
	pool, runs, data := cursorRunsFile(t, 64)
	var c RunCursor
	c.Open(runs[0], runs[1])
	for k, sh := range cursorShapes {
		for lo := 0; lo < sh.count; lo += 37 {
			hi := min(lo+1+(lo*13)%150, sh.count)
			got := readSpan(t, &c, k, sh.stride, lo, hi)
			if !bytes.Equal(got, data[k][lo*sh.stride:hi*sh.stride]) {
				t.Fatalf("run %d [%d,%d): bytes differ", k, lo, hi)
			}
		}
	}
	if held := pool.PinnedFrames(); held != cursorRuns {
		t.Fatalf("cursor holds %d pins mid-walk, want one per run", held)
	}
	c.Close()

	// Ascending single-element reads over both runs: one pin per page.
	pool.ResetStats()
	c.Open(runs[0], runs[1])
	reads := 0
	for i := 0; i < 900; i++ {
		for k, sh := range cursorShapes {
			if i < sh.count {
				if want := i > 0 && i%runs[k].PerPage() != 0; c.Holds(k, i) != want {
					t.Fatalf("run %d: Holds(%d) = %v before reading it, want %v", k, i, !want, want)
				}
				readSpan(t, &c, k, sh.stride, i, i+1)
				reads++
			}
		}
	}
	pages := runs[0].Pages() + runs[1].Pages()
	st := pool.Stats()
	if gets := int(st.Hits + st.Misses); gets != pages {
		t.Fatalf("%d reads cost %d pool pins, want one per page (%d)", reads, gets, pages)
	}
	if pins := c.Close(); pins != pages {
		t.Fatalf("Close reported %d pins, want %d", pins, pages)
	}
	if c.Holds(0, 300) || c.Holds(1, 0) {
		t.Fatal("a closed cursor reports a held page")
	}
	if pins := c.Close(); pins != 0 {
		t.Fatalf("second Close reported %d pins", pins)
	}
	if held := pool.PinnedFrames(); held != 0 {
		t.Fatalf("%d frames pinned after Close", held)
	}

	// Out-of-run ranges: typed error, pool untouched.
	pool.ResetStats()
	for _, r := range [][2]int{{-1, 2}, {5, 5}, {7, 3}, {0, 302}, {301, 302}} {
		_, _, err := c.Span(0, r[0], r[1])
		var re *RangeError
		if !errors.As(err, &re) || re.Count != 301 {
			t.Fatalf("Span(0, %d, %d) = %v, want a RangeError", r[0], r[1], err)
		}
	}
	if st := pool.Stats(); st.Hits+st.Misses != 0 {
		t.Fatal("rejected spans touched the pool")
	}
}

// TestRunCursorsNeverWaitWhilePinned: more cursors than frames. Each
// cursor wants a page of each run pinned at once and the pool has one or
// two frames, so every other pin would have to wait; the cursors drop what
// they hold first and the walks serialize instead of deadlocking.
func TestRunCursorsNeverWaitWhilePinned(t *testing.T) {
	for _, capacity := range []int{1, 2} {
		pool, runs, data := cursorRunsFile(t, capacity)
		const workers = 6
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var c RunCursor
				c.Open(runs[0], runs[1])
				defer c.Close()
				for i := w; i < 900; i += 3 {
					for k, sh := range cursorShapes {
						j := i % sh.count
						b, _, err := c.Span(k, j, j+1)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(b, data[k][j*sh.stride:(j+1)*sh.stride]) {
							t.Errorf("capacity %d worker %d: run %d element %d differs", capacity, w, k, j)
							return
						}
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("capacity %d: cursors deadlocked", capacity)
		}
		if held := pool.PinnedFrames(); held != 0 {
			t.Fatalf("capacity %d: %d frames still pinned", capacity, held)
		}
	}
}
