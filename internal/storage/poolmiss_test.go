package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// gateFile counts ReadAt calls per offset and can park the reads of one
// offset until released, so a test decides what happens while a page load
// is in flight instead of sleeping and hoping.
type gateFile struct {
	File
	mu    sync.Mutex
	reads map[int64]int
	off   int64         // reads at off park while gate != nil
	gate  chan struct{} // closed to let the parked reads through
	in    chan struct{} // one token per read that parked
}

func (g *gateFile) ReadAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.reads[off]++
	var gate chan struct{}
	if g.gate != nil && off == g.off {
		gate = g.gate
	}
	g.mu.Unlock()
	if gate != nil {
		g.in <- struct{}{}
		<-gate
	}
	return g.File.ReadAt(p, off)
}

// hold parks every read at off from now on; the returned func lets them
// through and disarms the gate.
func (g *gateFile) hold(off int64) (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.off, g.gate = off, gate
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

func (g *gateFile) readsAt(off int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads[off]
}

// missFixture is a read-only store of pages data pages, each filled to the
// last payload byte with its own pattern, opened through a gateFile over a
// FaultInjector over the real file.
type missFixture struct {
	pager *Pager
	pool  *BufferPool
	gate  *gateFile
	inj   *FaultInjector
	ids   []PageID
}

func (m *missFixture) off(i int) int64 { return int64(m.ids[i]) * int64(m.pager.PageSize()) }

func newMissFixture(t *testing.T, pages, capacity int) *missFixture {
	t.Helper()
	path := filepath.Join(t.TempDir(), "miss.gmine")
	w, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := &missFixture{ids: make([]PageID, pages)}
	payload := make([]byte, w.PayloadSize())
	for i := range m.ids {
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		if m.ids[i], err = w.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(m.ids[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m.pager, err = OpenWrapped(path, true, func(f File) File {
		m.inj = NewFaultInjector(f, 1)
		m.gate = &gateFile{File: m.inj, reads: map[int64]int{}, in: make(chan struct{}, 64)}
		return m.gate
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.pager.Close() })
	m.pool = NewBufferPool(m.pager, capacity)
	return m
}

// want is page i's payload as the allocating Pager.ReadPage reads it.
func (m *missFixture) want(t *testing.T, i int) []byte {
	t.Helper()
	b, err := m.pager.ReadPage(m.ids[i])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitFor polls cond (a snapshot under the pool lock) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPoolMissSteadyStateAllocFree: once the pool has grown to capacity a
// miss recycles the victim's frame and buffer, so an evict-and-load cycle
// allocates nothing — on the bare pool and through a counted view.
func TestPoolMissSteadyStateAllocFree(t *testing.T) {
	m := newMissFixture(t, 6, 2)
	for i := range m.ids {
		touch(t, m.pool, m.ids[i]) // grow to capacity, every later Get evicts
	}
	for _, pp := range []PagePool{m.pool, m.pool.Counted()} {
		i := 0
		allocs := testing.AllocsPerRun(300, func() {
			id := m.ids[i%len(m.ids)]
			i++
			if _, err := pp.Get(id); err != nil {
				t.Fatal(err)
			}
			pp.Release(id)
		})
		if allocs > 0 {
			t.Errorf("%T: steady-state miss allocates %.2f per load, want 0", pp, allocs)
		}
	}
	if st := m.pool.Stats(); st.Misses < 590 || st.Evictions < 590 {
		t.Fatalf("cycle did not miss: %+v", st)
	}
	if m.pool.nframes != 2 {
		t.Fatalf("pool grew to %d frames, capacity 2", m.pool.nframes)
	}
}

// TestPoolMissRecycledBufferBytes: B loaded over evicted A's buffer, and A
// loaded back over B's, read exactly what the allocating ReadPage reads.
func TestPoolMissRecycledBufferBytes(t *testing.T) {
	m := newMissFixture(t, 3, 1)
	wantA, wantB := m.want(t, 0), m.want(t, 1)
	a, err := m.pool.Get(m.ids[0])
	if err != nil || !bytes.Equal(a, wantA) {
		t.Fatalf("A: err=%v equal=%v", err, bytes.Equal(a, wantA))
	}
	m.pool.Release(m.ids[0])
	b, err := m.pool.Get(m.ids[1])
	if err != nil || !bytes.Equal(b, wantB) {
		t.Fatalf("B over A's buffer: err=%v equal=%v", err, bytes.Equal(b, wantB))
	}
	if &a[0] != &b[0] {
		t.Fatal("B was not read into A's recycled buffer")
	}
	if len(b) != m.pager.PayloadSize() {
		t.Fatalf("payload %d bytes, want %d", len(b), m.pager.PayloadSize())
	}
	m.pool.Release(m.ids[1])
	a2, err := m.pool.Get(m.ids[0])
	if err != nil || !bytes.Equal(a2, wantA) {
		t.Fatalf("A reloaded: err=%v equal=%v", err, bytes.Equal(a2, wantA))
	}
	m.pool.Release(m.ids[0])
}

// TestReadPageIntoMatchesReadPage: the one read body fills a dirty buffer
// with exactly ReadPage's payload, heals scripted transients on the way,
// keeps the range and buffer-size gates, and runs concurrently.
func TestReadPageIntoMatchesReadPage(t *testing.T) {
	m := newMissFixture(t, 4, 1)
	page := bytes.Repeat([]byte{0xAB}, m.pager.PageSize())
	m.inj.Script(FaultShort, FaultFlip, FaultErr)
	if err := m.pager.ReadPageInto(m.ids[2], page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:m.pager.PayloadSize()], m.want(t, 2)) {
		t.Fatal("ReadPageInto and ReadPage disagree")
	}
	if rs := m.pager.RetryStats(); rs.Retries != 3 || rs.Healed != 1 || rs.Failed != 0 {
		t.Fatalf("retry stats %+v, want 3 retries healing 1 read", rs)
	}
	if err := m.pager.ReadPageInto(m.ids[0], page[:len(page)-1]); err == nil {
		t.Fatal("short page buffer accepted")
	}
	if err := m.pager.ReadPageInto(PageID(m.pager.NumPages()), page); err == nil {
		t.Fatal("read of an unallocated page succeeded")
	}
	if rs := m.pager.RetryStats(); rs.Failed != 0 {
		t.Fatalf("rejected requests counted as failed reads: %+v", rs)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, m.pager.PageSize())
			for k := 0; k < 200; k++ {
				i := (g + k) % len(m.ids)
				if err := m.pager.ReadPageInto(m.ids[i], buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(i*31) {
					t.Errorf("page %d: first byte %d", i, buf[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadPagesIntoWindow: a window of k pages is one ReadAt, every page
// of it matches ReadPage, a transient fault re-reads the whole window
// (healing), readAttempts faults fail it once, and the range and buffer
// gates reject bad requests without counting a failed read.
func TestReadPagesIntoWindow(t *testing.T) {
	m := newMissFixture(t, 5, 1)
	size, payload := m.pager.PageSize(), m.pager.PayloadSize()
	want := make([][]byte, len(m.ids))
	for i := range m.ids {
		want[i] = m.want(t, i)
	}
	buf := bytes.Repeat([]byte{0xAB}, 3*size)
	read := func() (reads uint64, err error) {
		r0 := m.inj.Stats().Reads
		err = m.pager.ReadPagesInto(m.ids[1], 3, buf)
		return m.inj.Stats().Reads - r0, err
	}
	if reads, err := read(); err != nil || reads != 1 {
		t.Fatalf("window read: %d ReadAt calls, err %v; want 1 and nil", reads, err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(buf[i*size:i*size+payload], want[1+i]) {
			t.Fatalf("window page %d differs from ReadPage", i)
		}
	}

	m.inj.Script(FaultFlip)
	if reads, err := read(); err != nil || reads != 2 {
		t.Fatalf("flipped window: %d ReadAt calls, err %v; want a healing re-read", reads, err)
	}
	if rs := m.pager.RetryStats(); rs.Retries != 1 || rs.Healed != 1 || rs.Failed != 0 {
		t.Fatalf("retry stats %+v, want 1 retry healing 1 read", rs)
	}
	m.inj.Script(FaultErr, FaultErr, FaultErr, FaultErr)
	if reads, err := read(); err == nil || reads != readAttempts {
		t.Fatalf("exhausted window: %d ReadAt calls, err %v; want %d and a failure", reads, err, readAttempts)
	}
	if rs := m.pager.RetryStats(); rs.Failed != 1 {
		t.Fatalf("retry stats %+v, want the exhausted window failed once", rs)
	}

	for _, c := range []struct {
		what  string
		first PageID
		k     int
		buf   []byte
	}{
		{"empty window", m.ids[1], 0, buf[:0]},
		{"window past the file", m.ids[3], 3, buf},
		{"short buffer", m.ids[1], 3, buf[:3*size-1]},
	} {
		if err := m.pager.ReadPagesInto(c.first, c.k, c.buf); err == nil {
			t.Fatalf("%s accepted", c.what)
		}
	}
	if rs := m.pager.RetryStats(); rs.Failed != 1 {
		t.Fatalf("rejected requests counted as failed reads: %+v", rs)
	}
}

// TestPoolLoadSingleFlight: sixteen goroutines Get one cold page; the file
// sees one read, everyone gets the same pinned frame, fifteen of them are
// counted as having waited on the load.
func TestPoolLoadSingleFlight(t *testing.T) {
	const getters = 16
	m := newMissFixture(t, 4, 4)
	part := m.pool.Counted() // half the getters pin through a counted view
	want := m.want(t, 1)
	reads0 := m.gate.readsAt(m.off(1))
	release := m.gate.hold(m.off(1))

	got := make([][]byte, getters)
	var wg sync.WaitGroup
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pp PagePool = m.pool
			if g%2 == 1 {
				pp = part
			}
			data, err := pp.Get(m.ids[1])
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = data
		}(g)
	}
	<-m.gate.in // the one load reached the file
	waitFor(t, "15 getters waiting on the load", func() bool { return m.pool.Stats().LoadWaits == getters-1 })
	if pins := m.pool.PinnedFrames(); pins != 1 {
		t.Fatalf("%d frames pinned during the load, want the loading one", pins)
	}
	release()
	wg.Wait()

	if n := m.gate.readsAt(m.off(1)) - reads0; n != 1 {
		t.Fatalf("%d reads of the page, want exactly 1", n)
	}
	for g, data := range got {
		if !bytes.Equal(data, want) {
			t.Fatalf("getter %d read different bytes", g)
		}
		if &data[0] != &got[0][0] {
			t.Fatalf("getter %d got a different frame", g)
		}
	}
	m.pool.mu.Lock()
	pins := m.pool.frames[m.ids[1]].pins
	m.pool.mu.Unlock()
	if pins != getters {
		t.Fatalf("frame holds %d pins, want %d", pins, getters)
	}
	st, ps := m.pool.Stats(), part.Stats()
	if st.Misses != 1 || st.Hits != getters-1 || st.LoadWaits != getters-1 {
		t.Fatalf("pool stats %+v, want 1 miss and 15 waited hits", st)
	}
	if ps.Hits+ps.Misses != getters/2 || ps.LoadWaits+ps.Misses != getters/2 {
		t.Fatalf("view stats %+v, want its 8 getters as one load's miss/waits", ps)
	}
	for g := 0; g < getters; g++ {
		m.pool.Release(m.ids[1])
	}
	if pins := m.pool.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned", pins)
	}
}

// TestPoolLoadFailureFailsEveryWaiter: a load that exhausts the retry
// budget fails the loader and every getter waiting on it with that one
// error, leaves nothing behind, and the frame serves the next load.
func TestPoolLoadFailureFailsEveryWaiter(t *testing.T) {
	const waiters = 3
	m := newMissFixture(t, 4, 4)
	part := m.pool.Counted()
	touch(t, part, m.ids[0])
	frames0, resident0 := m.pool.nframes, m.pool.Resident()
	want := m.want(t, 1)
	reads0 := m.gate.readsAt(m.off(1))

	release := m.gate.hold(m.off(1))
	m.inj.Script(FaultErr, FaultErr, FaultErr, FaultErr)
	errs := make(chan error, waiters+1)
	get := func() {
		_, err := part.Get(m.ids[1])
		errs <- err
	}
	go get()
	<-m.gate.in
	for w := 0; w < waiters; w++ {
		go get()
	}
	waitFor(t, "waiters on the load", func() bool { return m.pool.Stats().LoadWaits == waiters })
	release()
	var first error
	for i := 0; i < waiters+1; i++ {
		err := <-errs
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("getter %d: err=%v, want the exhausted transient fault", i, err)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("getters saw different errors: %v vs %v", first, err)
		}
	}
	if rs := m.pager.RetryStats(); rs.Failed != 1 || rs.Retries != readAttempts-1 {
		t.Fatalf("retry stats %+v, want one load spending the whole budget", rs)
	}
	if got := m.pool.Resident(); got != resident0 {
		t.Fatalf("%d resident pages after the failed load, want %d", got, resident0)
	}
	if pins := m.pool.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned after the failed load", pins)
	}
	if st := part.Stats(); st.Misses != 2 || st.LoadWaits != waiters {
		t.Fatalf("view stats %+v after the failed load, want 2 misses and %d waits", st, waiters)
	}

	data, err := part.Get(m.ids[1]) // script spent: a fresh load, and it succeeds
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("Get after the failed load: err=%v", err)
	}
	part.Release(m.ids[1])
	if m.pool.nframes != frames0+1 || m.pool.free != nil {
		t.Fatalf("failed load's frame not reused: %d frames (was %d), free=%v", m.pool.nframes, frames0, m.pool.free != nil)
	}
	if n := m.gate.readsAt(m.off(1)) - reads0; n != readAttempts+1 {
		t.Fatalf("%d reads of the page, want %d failed attempts + 1", n, readAttempts)
	}
}

// TestPoolLoadSlowReadDoesNotStallOthers: one page load held in the file
// for 100 ms (a slow device, or a retry back-off) delays nobody else — a
// hit on a resident page and a miss on another page finish in under 5 ms
// while it is still in flight. Before loads left the pool lock both took
// the full 100 ms, every time.
func TestPoolLoadSlowReadDoesNotStallOthers(t *testing.T) {
	const hold, limit = 100 * time.Millisecond, 5 * time.Millisecond
	m := newMissFixture(t, 12, 4)
	m.inj.SetLatency(hold)
	touch(t, m.pool, m.ids[0])
	// A round can lose its 5 ms to the scheduler on a busy box; the old
	// behaviour lost 100 ms in every round, so one clean round in three
	// still tells them apart.
	var hit, miss time.Duration
	for round := 0; round < 3; round++ {
		slow, other := m.ids[1+3*round], m.ids[2+3*round]
		reads0 := m.inj.Stats().Reads
		m.inj.Script(FaultSlow)
		done := make(chan error, 1)
		go func() {
			_, err := m.pool.Get(slow)
			done <- err
		}()
		waitFor(t, "the slow read to reach the file", func() bool { return m.inj.Stats().Reads > reads0 })

		start := time.Now()
		if _, err := m.pool.Get(m.ids[0]); err != nil {
			t.Fatal(err)
		}
		m.pool.Release(m.ids[0])
		hit = time.Since(start)
		start = time.Now()
		if _, err := m.pool.Get(other); err != nil {
			t.Fatal(err)
		}
		m.pool.Release(other)
		miss = time.Since(start)

		if err := <-done; err != nil {
			t.Fatal(err)
		}
		m.pool.Release(slow)
		if hit < limit && miss < limit {
			break
		}
	}
	if hit >= limit || miss >= limit {
		t.Fatalf("beside a %v load: hit took %v, miss on another page %v, want both under %v", hold, hit, miss, limit)
	}
	if pins := m.pool.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned", pins)
	}
}
