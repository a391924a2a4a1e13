package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/bench/wire"
)

// sample is one completed (or failed) operation as the client saw it.
type sample struct {
	req    wire.Request
	ms     float64
	cache  string // X-Gmine-Cache: hit, miss, coalesced or ""
	status int
	bytes  int // of the body as received
	traced bool
	// counted marks a sample inside a whole cycle of its client; only
	// those feed throughput and percentiles.
	counted bool
	err     error
	sum     [sha256.Size]byte // of the (unwrapped) body, for equality checks
}

// issue sends one request, reads the whole body, checks it, and returns
// the sample. Latency runs from just before the send until the last body
// byte is read; checking happens after the clock stops.
func issue(s *served, g *graphFacts, req wire.Request, traced bool) sample {
	out := sample{req: req, traced: traced}
	target := s.sessionURL() + req.Path
	if traced {
		// Every kind's path either has a query already or is the bare
		// /extract route.
		sep := "&"
		if req.Kind == wire.KindExtract {
			sep = "?"
		}
		target += sep + "trace=1"
	}
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hreq, err := http.NewRequest(req.Method, target, body)
	if err != nil {
		out.err = err
		return out
	}
	if req.Body != "" {
		hreq.Header.Set("Content-Type", "application/json")
	}
	begin := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		out.ms = msSince(begin)
		out.err = err
		return out
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.ms = msSince(begin)
	out.status, out.bytes = resp.StatusCode, len(payload)
	out.cache = resp.Header.Get("X-Gmine-Cache")
	switch {
	case err != nil:
		out.err = err
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.Path, resp.StatusCode, payload)
	default:
		if traced && enveloped(req.Kind) {
			if payload, err = unwrapTrace(payload); err != nil {
				out.err = err
				return out
			}
		}
		out.sum = sha256.Sum256(payload)
		out.err = checkResponse(req, g, payload)
	}
	return out
}

// enveloped reports whether ?trace=1 wraps this kind's answer in a
// {"trace","result"} envelope: only the JSON routes served through the
// result cache do; tree, labels and SVG come back bare.
func enveloped(kind string) bool {
	switch kind {
	case wire.KindScene, wire.KindLeafAnalysis, wire.KindExtract, wire.KindGraphAnalysis:
		return true
	}
	return false
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runStats is what one measured window produced.
type runStats struct {
	samples []sample
	wall    time.Duration
	// idle is, summed over clients, the time between reading one response
	// and sending the next: the benchmark's own checking, during which a
	// closed-loop client offers the server no load.
	idle time.Duration
	// rate is the sum over clients of the requests in its whole cycles
	// divided by the time its last whole cycle completed at. Dividing by
	// the shared wall instead would charge a client for the partial cycle
	// and the idle tail after it, which matters when one request takes a
	// tenth of the window.
	rate float64
}

// drive runs the closed-loop clients against st until the window closes.
// No request starts after `window`; the ones in flight finish and count.
func drive(s *served, g *graphFacts, st stream, clients int, window time.Duration) runStats {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		all runStats
	)
	begin := time.Now()
	deadline := begin.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var idle time.Duration
			var lastDone, cycleDone time.Time
			whole := 0 // requests in completed cycles
			for k := 0; time.Now().Before(deadline); k++ {
				req, endsCycle, ok := st.at(c, k)
				if !ok {
					break
				}
				if !lastDone.IsZero() {
					idle += time.Since(lastDone)
				}
				sent := time.Now()
				sm := issue(s, g, req, false)
				// issue stops its clock before checking; so does the idle gap.
				lastDone = sent.Add(time.Duration(sm.ms * 1e6))
				mine = append(mine, sm)
				if endsCycle {
					whole, cycleDone = len(mine), lastDone
				}
			}
			for i := range mine[:whole] {
				mine[i].counted = true
			}
			mu.Lock()
			all.samples = append(all.samples, mine...)
			all.idle += idle
			if whole > 0 {
				all.rate += float64(whole) / cycleDone.Sub(begin).Seconds()
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.wall = time.Since(begin)
	return all
}

// driveSequential walks the stream with one client for the traced run,
// marking a seeded half of the requests with ?trace=1. Samples come back
// in issue order.
func driveSequential(s *served, g *graphFacts, st stream, window time.Duration, seed int64) runStats {
	var all runStats
	var lastDone time.Time
	begin := time.Now()
	deadline := begin.Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		req, ok := st.seq(i)
		if !ok {
			break
		}
		traced := rngAt(seed, tagTraceCoin, i).IntN(2) == 1
		if i > 0 {
			all.idle += time.Since(lastDone)
		}
		sent := time.Now()
		sm := issue(s, g, req, traced)
		lastDone = sent.Add(time.Duration(sm.ms * 1e6))
		all.samples = append(all.samples, sm)
	}
	all.wall = time.Since(begin)
	return all
}

const tagTraceCoin = 0x747263
