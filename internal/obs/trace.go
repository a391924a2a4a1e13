package obs

import (
	"sync"
	"time"
)

// Trace is the per-query stage record threaded through core.Engine: each
// whole-graph query (extract, PageRank, graph analysis) opens spans around
// its stages (adjacency open, label preload, solve, induce, render) and
// accumulates resource counts (buffer-pool pins, hits, misses, evictions
// and load waits, view faults, debug-mode allocation deltas). The HTTP server creates one
// per request, keyed by the request ID it also returns in the
// X-Gmine-Trace-Id header, feeds the completed trace into the metrics
// registry, and — with ?trace=1 — returns the snapshot as a JSON sidecar.
//
// All methods are safe on a nil *Trace (no-ops), so instrumented code
// paths need no "is tracing on" branches, and safe for concurrent use (a
// batch request may run items on several goroutines against one parent).
type Trace struct {
	// ID is the request ID this trace belongs to.
	ID string

	debug bool

	mu       sync.Mutex
	begin    time.Time
	stages   []StageData
	counts   []CountData
	notes    []NoteData
	total    time.Duration
	finished bool
}

// StageData is one completed stage span, offsets relative to the trace
// start.
type StageData struct {
	Name        string `json:"name"`
	StartMicros int64  `json:"startMicros"`
	DurMicros   int64  `json:"durMicros"`
}

// CountData is one named resource count.
type CountData struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NoteData is one string annotation (e.g. cache state).
type NoteData struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// TraceData is the JSON-marshalable snapshot of a trace — the ?trace=1
// response sidecar.
type TraceData struct {
	ID          string      `json:"id"`
	TotalMicros int64       `json:"totalMicros"`
	Stages      []StageData `json:"stages"`
	Counts      []CountData `json:"counts,omitempty"`
	Notes       []NoteData  `json:"notes,omitempty"`
}

// NewTrace starts a trace identified by id (normally the request ID).
func NewTrace(id string) *Trace {
	return &Trace{ID: id, begin: time.Now()}
}

// SetDebug toggles expensive extra accounting (runtime.ReadMemStats
// deltas around solves). Set it before handing the trace to the engine.
func (t *Trace) SetDebug(on bool) {
	if t != nil {
		t.debug = on
	}
}

// Debug reports whether expensive debug accounting is requested.
func (t *Trace) Debug() bool { return t != nil && t.debug }

// Span is an open stage; call End exactly once. The zero Span (from a nil
// trace) is inert.
type Span struct {
	t     *Trace
	name  string
	begin time.Time
}

// StartStage opens a named stage span.
func (t *Trace) StartStage(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, begin: time.Now()}
}

// End closes the span, recording its offset and duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.ObserveStage(s.name, s.begin, time.Since(s.begin))
}

// ObserveStage records a completed stage from an explicit start time and
// duration — the form used by instrumentation hooks that time stages
// themselves (extract.Options.StageHook).
func (t *Trace) ObserveStage(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, StageData{
		Name:        name,
		StartMicros: start.Sub(t.begin).Microseconds(),
		DurMicros:   d.Microseconds(),
	})
	t.mu.Unlock()
}

// Count adds delta to the named resource count (created at zero).
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		if t.counts[i].Name == name {
			t.counts[i].Value += delta
			return
		}
	}
	t.counts = append(t.counts, CountData{Name: name, Value: delta})
}

// CountValue returns the named count (0 when absent).
func (t *Trace) CountValue(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		if t.counts[i].Name == name {
			return t.counts[i].Value
		}
	}
	return 0
}

// Note sets a string annotation (last write wins).
func (t *Trace) Note(name, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.notes {
		if t.notes[i].Name == name {
			t.notes[i].Value = value
			return
		}
	}
	t.notes = append(t.notes, NoteData{Name: name, Value: value})
}

// Finish records the total duration (idempotent — the first call wins)
// and returns it.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.total = time.Since(t.begin)
		t.finished = true
	}
	return t.total
}

// Snapshot returns the trace as marshalable data. It finishes the trace
// if Finish has not run yet.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.Finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceData{
		ID:          t.ID,
		TotalMicros: t.total.Microseconds(),
		Stages:      append([]StageData(nil), t.stages...),
		Counts:      append([]CountData(nil), t.counts...),
		Notes:       append([]NoteData(nil), t.notes...),
	}
}

// Stages returns a copy of the completed stage spans recorded so far.
func (t *Trace) Stages() []StageData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageData(nil), t.stages...)
}
