package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// statusClientClosedRequest is the nginx-convention status for "the client
// went away before we could answer". It never reaches that client — the
// connection is gone — but it keeps cancelled work distinct from real 500s
// in the request log, the route metrics and batch item results.
const statusClientClosedRequest = 499

// overloadError is the wire body of every load-shedding rejection: admission
// shed, request timeout and open circuit breaker all speak it. Kind tells an
// automated client which backoff policy applies, and RetryAfterSeconds
// mirrors the Retry-After header for clients that only read bodies. The
// shape deliberately extends apiError (same "error" key), so clients that
// only know the plain error schema still render something sensible.
type overloadError struct {
	Error             string `json:"error"`
	Kind              string `json:"kind"` // "shed" | "timeout" | "breaker_open"
	RetryAfterSeconds int    `json:"retryAfterSeconds"`
}

// writeOverload emits a 503 with Retry-After and the structured overload
// body. All transient rejections funnel through here so they stay
// distinguishable from permanent 500s (plain apiError, no Retry-After).
func writeOverload(w http.ResponseWriter, kind string, retryAfter time.Duration, format string, args ...any) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, overloadError{
		Error:             fmt.Sprintf(format, args...),
		Kind:              kind,
		RetryAfterSeconds: secs,
	})
}

// --- Admission control ------------------------------------------------------

// shedRetryAfter is the Retry-After hint on admission sheds. Queries are
// interactive-short, so "come back in a second" is the honest answer.
const shedRetryAfter = time.Second

// admit is the load-shedding middleware on the heavy query routes: at most
// cfg.MaxInFlight requests hold an admission slot at once, and requests
// beyond that are rejected immediately with 503 + Retry-After instead of
// queueing without bound. Shedding at the door keeps the latency of the
// queries already inside predictable — under overload the server degrades
// into fast, honest rejections rather than a pile-up of slow timeouts.
// Liveness surfaces (/healthz, /metrics) and session management stay
// outside, so an overloaded server can still be observed and drained.
func (s *Server) admit(next http.Handler) http.Handler {
	if s.admission == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admission <- struct{}{}:
			defer func() { <-s.admission }()
			next.ServeHTTP(w, r)
		default:
			s.metrics.overload.With("shed").Inc()
			writeOverload(w, "shed", shedRetryAfter,
				"server at capacity (%d queries in flight); retry shortly", cap(s.admission))
		}
	})
}

// timeoutRetryAfter is the Retry-After hint on request-timeout 503s: the
// query just burned the whole request budget, so suggest a real pause
// rather than an immediate identical retry.
const timeoutRetryAfter = 2 * time.Second

// timed runs a query route on the connection's goroutine under a context
// that ends cfg.RequestTimeout after it starts. The engine's cooperative
// cancellation and the route's waits (a session still building, a shared
// in-flight build) observe it, and each route calls refuse before it
// writes its 200, so a query past its deadline answers the timeout 503.
func (s *Server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// refuse writes the answer of a query that will not return its 200 and
// reports whether it wrote one: the timeout 503 once r's deadline has
// passed (read from the clock, not the deadline timer), else a non-nil err
// as a transient 503 (open breaker, deadline) or a plain error with status.
func (s *Server) refuse(w http.ResponseWriter, r *http.Request, err error, status int) bool {
	if dl, ok := r.Context().Deadline(); ok && !time.Now().Before(dl) {
		err = context.DeadlineExceeded
	}
	var boe *breakerOpenError
	switch {
	case err == nil:
		return false
	case errors.As(err, &boe):
		s.metrics.overload.With("breaker_open").Inc()
		writeOverload(w, "breaker_open", boe.retryAfter, "%s", boe)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.overload.With("timeout").Inc()
		writeOverload(w, "timeout", timeoutRetryAfter, "request timed out")
	default:
		writeError(w, status, "%s", err)
	}
	return true
}

// --- Per-session circuit breaker -------------------------------------------

// Breaker defaults: three consecutive permanent paged faults open the
// breaker, and the first probe is admitted after one cooldown.
const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 2 * time.Second
)

// errBreakerOpen marks rejections by an open session breaker; handlers map
// it to 503 + Retry-After through refuse.
var errBreakerOpen = errors.New("server: session circuit breaker open")

// breakerOpenError carries the cooldown remaining when the breaker rejected
// a query, so the 503 can advertise an honest Retry-After.
type breakerOpenError struct {
	session    string
	retryAfter time.Duration
}

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("session %q: repeated storage faults, circuit breaker open (retry in %s)",
		e.session, e.retryAfter.Round(time.Millisecond))
}

func (e *breakerOpenError) Unwrap() error { return errBreakerOpen }

// breaker is a per-session circuit breaker over permanent paged-read
// faults. A session whose backing file has gone bad fails every paged query
// the hard way — a full solve that grinds the pool until its view latches
// a fault. After threshold consecutive paged faults the breaker opens and
// queries fail in microseconds with 503 + Retry-After instead. After the
// cooldown one probe query is let through (half-open): if the store reads
// clean again (say the file was re-saved), the breaker closes and traffic
// resumes; if the probe faults too, the breaker re-opens for another
// cooldown. Cancellations and validation errors never count — only
// core.ErrPagedIO is evidence against the store.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int       // consecutive paged faults while closed
	open      bool      // rejecting (or probing) until a clean query closes it
	openedAt  time.Time // when the breaker last opened
	probing   bool      // one half-open probe is in flight
	opens     uint64    // cumulative opens, for /metrics
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a query may proceed. When it may not, retryAfter is
// the cooldown remaining (at least one second's worth for the header). At
// most one caller is admitted as the half-open probe per cooldown.
func (b *breaker) allow() (retryAfter time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return 0, true
	}
	remaining := b.cooldown - time.Since(b.openedAt)
	if remaining > 0 {
		return remaining, false
	}
	if b.probing {
		// A probe is already testing the store; don't stampede it.
		return b.cooldown, false
	}
	b.probing = true
	return 0, true
}

// record classifies one finished query: pagedFault=true means it failed
// with a permanent paged-read fault (core.ErrPagedIO). Any query that
// completes without one — success, validation error, cancellation — is
// evidence the store reads fine and resets the breaker.
func (b *breaker) record(pagedFault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !pagedFault {
		b.fails, b.open, b.probing = 0, false, false
		return
	}
	b.fails++
	if b.probing || b.fails >= b.threshold {
		if !b.open {
			b.opens++
		} else if b.probing {
			b.opens++ // failed probe re-opens: count the new open interval
		}
		b.open, b.probing, b.openedAt = true, false, time.Now()
	}
}

// state returns the breaker position for /metrics and /healthz:
// 0 = closed, 1 = open, 2 = half-open (cooldown elapsed, probe pending or
// in flight).
func (b *breaker) state() (state int, opens uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return 0, b.opens
	case time.Since(b.openedAt) >= b.cooldown:
		return 2, b.opens
	default:
		return 1, b.opens
	}
}
