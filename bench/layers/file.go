package main

import (
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// countingFile is the probe's storage.File: it forwards to the real file
// and counts read calls, bytes and time. Slid in through the product's
// existing wrapper seam (server.Config.FaultWrap, core.OpenEngineWrapped),
// it sees every page read the engine above it makes, from any goroutine.
type countingFile struct {
	storage.File
	st *readStats
}

type readStats struct {
	calls, bytes, ns atomic.Int64
}

type readSnapshot struct{ calls, bytes, ns int64 }

func (s *readStats) snapshot() readSnapshot {
	return readSnapshot{s.calls.Load(), s.bytes.Load(), s.ns.Load()}
}

func (a readSnapshot) sub(b readSnapshot) readSnapshot {
	return readSnapshot{a.calls - b.calls, a.bytes - b.bytes, a.ns - b.ns}
}

// wrap is the func(storage.File) storage.File the product's seams take.
func (s *readStats) wrap(f storage.File) storage.File { return countingFile{File: f, st: s} }

func (c countingFile) ReadAt(p []byte, off int64) (int, error) {
	begin := time.Now()
	n, err := c.File.ReadAt(p, off)
	c.st.ns.Add(time.Since(begin).Nanoseconds())
	c.st.calls.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}
