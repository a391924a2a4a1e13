package server

import (
	"context"
	"net/http"
	"runtime/debug"
	"strconv"

	"repro/internal/obs"
)

// traceCtxKey carries the per-request *obs.Trace through the handler chain.
type traceCtxKey struct{}

// traceFrom returns the request's trace, or nil when the handler runs
// outside the instrument middleware (every obs.Trace method is nil-safe,
// so callers use the result without checking).
func traceFrom(ctx context.Context) *obs.Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*obs.Trace)
	return tr
}

// statusWriter captures the status code and body size a handler produced.
// An implicit 200 (first Write without WriteHeader) is recorded as such.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument is the observability middleware: it assigns each request a
// fresh ID (returned in X-Gmine-Trace-Id), opens a stage trace carried via
// context into the engine, captures status and latency per route, contains
// handler panics as 500s, and emits one structured log line per request.
//
// It wraps the route mux and hands it its own request copy, so the route
// pattern the mux resolves (r.Pattern) is on that copy when next returns.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.NewRequestID()
		tr := obs.NewTrace(id)
		if r.URL.Query().Get("debug") == "1" {
			tr.SetDebug(true)
		}
		w.Header().Set("X-Gmine-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		r2 := r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))

		s.metrics.inFlight.Inc()
		defer func() {
			panicked := recover()
			s.metrics.inFlight.Dec()
			if panicked != nil {
				s.metrics.panics.Inc()
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
				s.log.Error("handler panic",
					"id", id, "path", r.URL.Path, "panic", panicked,
					"stack", string(debug.Stack()))
			}
			if sw.status == 0 {
				// Handler wrote nothing at all (e.g. a 200 with empty body
				// via implicit WriteHeader on return).
				sw.status = http.StatusOK
			}
			// The mux wrote the matched pattern onto r2 during routing; an
			// unrouted request (mux 404, redirect) keeps a bounded label
			// instead of the raw path.
			route := r2.Pattern
			if route == "" {
				route = "unmatched"
			}
			total := tr.Finish()
			if sw.status == statusClientClosedRequest {
				s.metrics.cancels.Inc()
			}
			s.metrics.requests.With(route, strconv.Itoa(sw.status)).Inc()
			s.metrics.latency.With(route).Observe(total.Seconds())
			s.metrics.observeTrace(tr)
			s.log.Info("request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", sw.status,
				"bytes", sw.bytes,
				"durMicros", total.Microseconds(),
				"cache", sw.Header().Get("X-Gmine-Cache"),
			)
		}()
		next.ServeHTTP(sw, r2)
	})
}
