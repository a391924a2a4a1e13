// Package server puts the GMine engine behind a long-lived HTTP/JSON
// service: named engine sessions live in a registry, and the paper's
// interactive operations — Tomahawk scenes, label queries, §III.B mining
// metrics, §IV connection-subgraph extraction — are endpoints. Clients
// open sessions over persisted G-Tree files (disk-backed), built offline
// by `gmine build`; only the operator's Preload (`gmine serve -in`,
// `-synthetic`) builds a hierarchy in memory, from an edge list or the
// synthetic DBLP generator. A session is registered once its engine
// exists. Per-session RW locking lets navigation and extraction reads run
// in parallel while deletion stays exclusive, and a bounded LRU cache keyed
// on canonicalized request parameters serves repeated interactive queries
// without re-running the RWR solve.
//
// Endpoints:
//
//	GET    /healthz                      liveness + session list + cache stats
//	GET    /metrics                      Prometheus text scrape of the obs registry
//	POST   /sessions                     open a G-Tree file as a session
//	GET    /sessions                     list sessions
//	GET    /sessions/{id}                session info
//	DELETE /sessions/{id}                close and remove a session
//	GET    /sessions/{id}/tree           hierarchy stats + community listing
//	GET    /sessions/{id}/scene          Tomahawk scene (JSON or SVG)
//	POST   /sessions/{id}/extract        multi-source connection subgraph
//	POST   /sessions/{id}/extract/batch  many extractions through one worker pool
//	GET    /sessions/{id}/analysis       SubgraphReport of a leaf community
//	GET    /sessions/{id}/analysis/graph whole-graph metrics + PageRank (out of core for gtree sessions)
//	GET    /sessions/{id}/labels         exact or prefix label search
package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/storage"
)

// Config tunes the server.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// CacheEntries bounds the LRU result cache (default 256).
	CacheEntries int
	// RequestTimeout caps each query request end to end (default 60s).
	RequestTimeout time.Duration
	// MaxBudget caps the extraction node budget a request may ask for
	// (default 2000) so one query cannot monopolize the server.
	MaxBudget int
	// MaxBatch caps the number of extraction requests one batch call may
	// carry (default 64).
	MaxBatch int
	// MaxInFlight bounds concurrently admitted query requests on the heavy
	// routes (scene, extract, batch, analysis, labels, tree); requests
	// beyond it are shed immediately with 503 + Retry-After instead of
	// queueing without bound. Default 256; negative disables admission
	// control entirely.
	MaxInFlight int
	// BreakerThreshold is how many consecutive permanent paged faults open
	// a session's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects queries before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// FaultWrap optionally wraps the backing file of every disk-backed
	// session opened by this server (the -chaos flag installs a
	// storage.FaultConfig.Wrap here). Nil = direct file access. Test-only
	// fault injection; leave nil in production.
	FaultWrap func(storage.File) storage.File
	// Logger receives one structured line per request plus server events.
	// Nil defaults to text on stderr at Warn — quiet by default so embedding
	// the server (or running it under httptest) doesn't spam per-request
	// Info lines; the CLI installs an Info-level logger explicitly.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 2000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	return c
}

// Server hosts the session registry and result cache.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *resultCache
	started time.Time
	httpSrv *http.Server
	log     *slog.Logger
	metrics *serverMetrics
	// admission is the query-admission semaphore (nil = unlimited); see
	// Server.admit in resilience.go.
	admission chan struct{}
}

// New returns a server ready to Handle or ListenAndServe.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   newResultCache(cfg.CacheEntries),
		started: time.Now(),
	}
	s.reg.brkThreshold = cfg.BreakerThreshold
	s.reg.brkCooldown = cfg.BreakerCooldown
	if cfg.MaxInFlight > 0 {
		s.admission = make(chan struct{}, cfg.MaxInFlight)
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	s.metrics = newServerMetrics(s)
	// Built here, not in Serve, so a Shutdown racing a just-started Serve
	// goroutine still sees the server and drains it.
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the routed handler (exported for httptest and
// embedding). Query routes run under the request deadline (see timed);
// session creation and deletion do not: timing out an open of a large
// file would tell the client "failed" while the session still registers,
// and a delete waits for the session's in-flight reads. The instrument
// middleware (request IDs, trace, metrics, request log) wraps every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	query := func(pattern string, h http.Handler) { mux.Handle(pattern, s.timed(h)) }
	// Heavy query routes sit behind the admission semaphore (load shedding
	// under overload); liveness (/healthz, /metrics) and cheap listings do
	// not, so an overloaded or broken server can still be observed.
	query("GET /healthz", http.HandlerFunc(s.handleHealthz))
	query("GET /metrics", http.HandlerFunc(s.handleMetrics))
	query("GET /sessions", http.HandlerFunc(s.handleListSessions))
	query("GET /sessions/{id}", http.HandlerFunc(s.handleSessionInfo))
	query("GET /sessions/{id}/tree", s.admit(http.HandlerFunc(s.handleTree)))
	query("GET /sessions/{id}/scene", s.admit(http.HandlerFunc(s.handleScene)))
	query("POST /sessions/{id}/extract", s.admit(http.HandlerFunc(s.handleExtract)))
	query("POST /sessions/{id}/extract/batch", s.admit(http.HandlerFunc(s.handleExtractBatch)))
	query("GET /sessions/{id}/analysis", s.admit(http.HandlerFunc(s.handleAnalysis)))
	query("GET /sessions/{id}/analysis/graph", s.admit(http.HandlerFunc(s.handleGraphAnalysis)))
	query("GET /sessions/{id}/labels", s.admit(http.HandlerFunc(s.handleLabels)))
	mux.HandleFunc("POST /sessions", s.handleCreateSession)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDeleteSession)
	return s.instrument(mux)
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests (bounded by ctx), then closes every
// session, releasing disk-backed files.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.reg.closeAll()
	return err
}
