package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
)

// cmdServe runs the long-lived HTTP query/render server. Optionally one
// session is preloaded before the listener opens, so a container can come
// up serving (-synthetic scale, -in edge list, or -tree persisted G-Tree).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 256, "LRU result-cache entries")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	maxBudget := fs.Int("maxbudget", 2000, "max extraction node budget per request")
	maxBatch := fs.Int("maxbatch", 64, "max extraction requests per batch call")
	name := fs.String("name", "default", "name of the preloaded session")
	synthetic := fs.Float64("synthetic", 0, "preload a synthetic DBLP session at this scale (0 = none)")
	in := fs.String("in", "", "preload a session from this edge list")
	tree := fs.String("tree", "", "preload a disk-backed session from this G-Tree file")
	pool := fs.Int("pool", 0, "buffer-pool pages for the preloaded -tree session (0 = default); bounds resident paged-graph memory")
	tierBudget := fs.Int64("tierbudget", 0, "byte budget of the preloaded -tree session's hot tier: while it covers the decoded CSR, the whole graph is promoted into memory after the first query (0 = tiering off); results are bit-identical either way")
	seed := fs.Int64("seed", 1, "seed for the preloaded session")
	k := fs.Int("k", 5, "hierarchy fanout for preloaded memory sessions")
	levels := fs.Int("levels", 5, "hierarchy levels for preloaded memory sessions")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace period")
	debugAddr := fs.String("debug-addr", "", "optional side listener serving net/http/pprof and /metrics (e.g. 127.0.0.1:6060); keep it off the public address")
	logMode := fs.String("log", "text", "request/server log format: text, json or off")
	maxInFlight := fs.Int("maxinflight", 0, "max concurrently admitted query requests before shedding with 503 + Retry-After (0 = default 256, negative = unlimited)")
	chaos := fs.String("chaos", "", `inject transient read faults into disk-backed sessions for resilience testing, e.g. "rate=0.02,seed=1,latency=200us,kinds=flip+err+short" (testing only — never in production)`)
	fs.Parse(args)

	logger, err := buildLogger(*logMode)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Addr:           *addr,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
		MaxBudget:      *maxBudget,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *maxInFlight,
		Logger:         logger,
	}
	if *chaos != "" {
		fc, err := storage.ParseFaultConfig(*chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		cfg.FaultWrap = fc.Wrap
		fmt.Printf("CHAOS MODE: injecting faults into disk-backed sessions (%s)\n", *chaos)
	}
	srv := server.New(cfg)

	var preload *server.CreateSessionRequest
	switch {
	case *synthetic > 0:
		preload = &server.CreateSessionRequest{
			Name: *name, Source: "synthetic", Scale: *synthetic,
			Seed: *seed, K: *k, Levels: *levels,
		}
	case *in != "":
		preload = &server.CreateSessionRequest{
			Name: *name, Source: "edges", Path: *in,
			Seed: *seed, K: *k, Levels: *levels,
		}
	case *tree != "":
		preload = &server.CreateSessionRequest{
			Name: *name, Source: "gtree", Path: *tree, PoolPages: *pool,
			TierBudget: *tierBudget,
		}
	}
	if preload != nil {
		begin := time.Now()
		info, err := srv.Preload(*preload)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		fmt.Printf("preloaded session %q: %d nodes, %d communities (%s source) in %s\n",
			info.Name, info.Nodes, info.Communities, info.Source, time.Since(begin).Round(time.Millisecond))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("gmine serve listening on %s (cache %d entries, timeout %s)\n", *addr, *cache, *timeout)

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = newDebugServer(*debugAddr, srv)
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		fmt.Printf("debug listener on %s (pprof + /metrics)\n", *debugAddr)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Println("\nshutting down...")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if debugSrv != nil {
			_ = debugSrv.Shutdown(sctx)
		}
		return srv.Shutdown(sctx)
	}
}

// buildLogger maps the -log flag to the server's slog handler. "off" keeps
// a logger (server code logs unconditionally) that discards everything.
func buildLogger(mode string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "off":
		return slog.New(slog.DiscardHandler), nil
	}
	return nil, fmt.Errorf("-log must be text, json or off (got %q)", mode)
}

// newDebugServer wires net/http/pprof onto a dedicated mux (never the
// DefaultServeMux, which would leak the profiler onto any handler that
// falls through to it) alongside the metrics scrape, for a private
// operator listener:
//
//	go tool pprof  http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	go tool pprof  http://127.0.0.1:6060/debug/pprof/heap
//	curl           http://127.0.0.1:6060/metrics
func newDebugServer(addr string, srv *server.Server) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.MetricsHandler())
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}
