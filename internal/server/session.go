package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Session is one named engine instance hosted by the server. Its RWMutex
// is the server's concurrency discipline: every query handler (tree,
// scene, extract, analysis, labels) runs under the read lock so
// interactive reads proceed in parallel, while deletion holds the write
// lock exclusively. A session enters the registry only once its engine
// exists. An engine holds no query state — a scene is addressed by its
// focus id — and the disk-backed page path is internally synchronized, so
// shared reads are race-free.
type Session struct {
	name string
	gen  uint64 // registry-unique; cache keys embed it so a re-created name never hits stale entries

	mu  sync.RWMutex
	eng *core.Engine // nil once the session has been removed

	// Immutable after registration.
	source      string
	createdAt   time.Time
	buildMillis int64

	// brk is the session's circuit breaker over permanent paged faults
	// (see guardedRead).
	brk *breaker
}

// errSessionGone is returned by withRead when the session was deleted
// while the caller waited on the lock.
var errSessionGone = fmt.Errorf("server: session is gone")

// withRead runs fn with the session engine under the read lock.
func (s *Session) withRead(fn func(eng *core.Engine) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.eng == nil {
		return errSessionGone
	}
	return fn(s.eng)
}

// guardedRead is withRead behind the session's circuit breaker: while the
// breaker is open (the backing file has produced repeated permanent paged
// faults) queries fail immediately with a 503-mapped breakerOpenError
// instead of grinding the pool through another doomed solve. Every query
// outcome feeds the breaker — a permanent paged fault (core.ErrPagedIO)
// counts against the store, anything else (success, validation error,
// cancellation) is evidence it reads fine and closes the breaker again.
// Engine-touching query handlers use this; liveness probes keep the
// unguarded paths so an open breaker never blinds /healthz.
func (s *Session) guardedRead(fn func(eng *core.Engine) error) error {
	if wait, ok := s.brk.allow(); !ok {
		return &breakerOpenError{session: s.name, retryAfter: wait}
	}
	err := s.withRead(fn)
	s.brk.record(errors.Is(err, core.ErrPagedIO))
	return err
}

// poolSnapshot returns the session's buffer-pool state, or nil for
// sessions not opened from a G-Tree file (a built engine's pool reads an
// in-memory file and is not reported). It is the one snapshot path of
// /healthz, /metrics and session info. It never waits on the session
// lock: a session leaving the registry in remove reports nil too.
func (s *Session) poolSnapshot() *PoolInfo {
	if !s.mu.TryRLock() {
		return nil
	}
	defer s.mu.RUnlock()
	if s.eng == nil || !s.diskBacked() {
		return nil
	}
	pi := s.eng.Store().PoolInfo()
	return &pi
}

// diskBacked reports a session opened from a G-Tree file: only those
// report a buffer pool. A built session's store reads an in-memory file.
func (s *Session) diskBacked() bool { return s.source == "gtree" }

// SessionInfo is the wire representation of a session.
type SessionInfo struct {
	Name        string    `json:"name"`
	Source      string    `json:"source"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
	Communities int       `json:"communities"`
	Leaves      int       `json:"leaves"`
	Levels      int       `json:"levels"`
	DiskBacked  bool      `json:"diskBacked"`
	CreatedAt   time.Time `json:"createdAt"`
	BuildMillis int64     `json:"buildMillis"`
	// Pool reports the buffer-pool state of disk-backed sessions, the ones
	// opened from a G-Tree file (nil for built ones, whose store reads an
	// in-memory file): how much of the paged file is resident and how the
	// working set is behaving under load.
	Pool *PoolInfo `json:"pool,omitempty"`
}

// info snapshots the session under the read lock.
func (s *Session) info() (SessionInfo, error) {
	var out SessionInfo
	err := s.withRead(func(eng *core.Engine) error {
		st := eng.Tree().ComputeStats()
		// The root community counts every logical edge once.
		root := eng.Tree().Node(eng.Tree().Root())
		out = SessionInfo{
			Name:        s.name,
			Source:      s.source,
			Nodes:       eng.Store().GraphNodes(),
			Edges:       root.InternalCount,
			Communities: st.Communities,
			Leaves:      st.Leaves,
			Levels:      st.Levels,
			DiskBacked:  s.diskBacked(),
			CreatedAt:   s.createdAt,
			BuildMillis: s.buildMillis,
		}
		return nil
	})
	if err == nil {
		out.Pool = s.poolSnapshot()
	}
	return out, err
}

// cacheKey prefixes a request-parameter key with the session identity, so
// entries die with the session generation.
func (s *Session) cacheKey(params string) string {
	return fmt.Sprintf("%s#%d|%s", s.name, s.gen, params)
}

// Registry maps names to live sessions, each with its engine.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	nextGen  uint64

	// Breaker parameters stamped onto every registered session (zero =
	// package defaults). Set once before the registry serves traffic.
	brkThreshold int
	brkCooldown  time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// errSessionExists reports a name already registered.
func errSessionExists(name string) error {
	return fmt.Errorf("server: session %q already exists", name)
}

// add registers eng under name. If the name is taken it registers nothing
// and returns errSessionExists; the caller still owns eng.
func (r *Registry) add(name, source string, eng *core.Engine, buildMillis int64) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[name]; ok {
		return nil, errSessionExists(name)
	}
	r.nextGen++
	s := &Session{
		name: name, gen: r.nextGen, eng: eng,
		source: source, createdAt: time.Now(), buildMillis: buildMillis,
		brk: newBreaker(r.brkThreshold, r.brkCooldown),
	}
	r.sessions[name] = s
	return s, nil
}

// get returns the named session.
func (r *Registry) get(name string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[name]
	return s, ok
}

// remove unregisters and closes the named session. It takes the session's
// write lock, so it blocks until in-flight reads drain, and later readers
// holding the stale pointer observe errSessionGone.
func (r *Registry) remove(name string) error {
	r.mu.Lock()
	s, ok := r.sessions[name]
	if ok {
		delete(r.sessions, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no session %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.eng.Close()
	s.eng = nil
	return err
}

// list returns the registered sessions, sorted by name.
func (r *Registry) list() []*Session {
	r.mu.RLock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// closeAll closes every session (server shutdown).
func (r *Registry) closeAll() {
	for _, s := range r.list() {
		_ = r.remove(s.name)
	}
}
