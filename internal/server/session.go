package server

import (
	"context"
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
// interactive reads proceed in parallel, while the initial build and
// deletion hold the write lock exclusively. An engine holds no query
// state — a scene is addressed by its focus id — and the disk-backed page
// path is internally synchronized, so shared reads are race-free.
type Session struct {
	name string
	gen  uint64 // registry-unique; cache keys embed it so a rebuilt name never hits stale entries

	mu  sync.RWMutex
	eng *core.Engine // nil while building, and again after the session dies
	// built closes when the build commits or aborts: a query waits on it,
	// not on mu, so it can give up at its deadline.
	built chan struct{}

	// Immutable after the build completes (published before mu unlocks).
	source      string
	createdAt   time.Time
	buildMillis int64

	// brk is the session's circuit breaker over permanent paged faults
	// (see guardedRead). Set at reserve time, immutable afterwards.
	brk *breaker
}

// errSessionGone is returned by withRead when a session was reserved but
// its build failed or it was deleted while the caller waited on the lock.
var errSessionGone = fmt.Errorf("server: session is gone")

// withRead runs fn with the session engine under the read lock, once the
// session's build has committed or aborted; if ctx ends first, it returns
// ctx's error without waiting further.
func (s *Session) withRead(ctx context.Context, fn func(eng *core.Engine) error) error {
	select {
	case <-s.built:
	case <-ctx.Done():
		return ctx.Err()
	}
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
func (s *Session) guardedRead(ctx context.Context, fn func(eng *core.Engine) error) error {
	if wait, ok := s.brk.allow(); !ok {
		return &breakerOpenError{session: s.name, retryAfter: wait}
	}
	err := s.withRead(ctx, fn)
	s.brk.record(errors.Is(err, core.ErrPagedIO))
	return err
}

// poolSnapshot returns the session's buffer-pool state, or nil for
// sessions not opened from a G-Tree file (a built engine's pool reads an
// in-memory file and is not reported). It is the one snapshot path of
// /healthz, /metrics and session info. It never waits on the session
// lock: a write-locked session (building, or leaving the registry in
// remove) reports nil too.
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
func (s *Session) info(ctx context.Context) (SessionInfo, error) {
	var out SessionInfo
	err := s.withRead(ctx, func(eng *core.Engine) error {
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

// Registry maps names to live sessions. Creation is two-phase: reserve
// publishes a write-locked placeholder (so the name is taken and readers
// queue behind the build), then commit or abort releases it.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	nextGen  uint64

	// Breaker parameters stamped onto every reserved session (zero =
	// package defaults). Set once before the registry serves traffic.
	brkThreshold int
	brkCooldown  time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// reserve claims name and returns the placeholder session with its write
// lock held. The caller must call commit or abort exactly once.
func (r *Registry) reserve(name string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[name]; ok {
		return nil, fmt.Errorf("server: session %q already exists", name)
	}
	r.nextGen++
	s := &Session{
		name: name, gen: r.nextGen, createdAt: time.Now(),
		built: make(chan struct{}),
		brk:   newBreaker(r.brkThreshold, r.brkCooldown),
	}
	s.mu.Lock()
	r.sessions[name] = s
	return s, nil
}

// commit publishes the built engine and releases the build lock.
func (r *Registry) commit(s *Session, eng *core.Engine) {
	s.eng = eng
	s.mu.Unlock()
	close(s.built)
}

// abort removes a reserved session whose build failed and releases the
// build lock; queued readers observe errSessionGone.
func (r *Registry) abort(s *Session) {
	r.mu.Lock()
	delete(r.sessions, s.name)
	r.mu.Unlock()
	s.mu.Unlock()
	close(s.built)
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
	if s.eng != nil {
		err := s.eng.Close()
		s.eng = nil
		return err
	}
	return nil
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
