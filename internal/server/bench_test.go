package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/graph"
)

// BenchmarkServeExtract measures extraction latency through the full HTTP
// layer: "cold" resets the result cache every iteration (each request pays
// the RWR solve + key-path DP), "hit" serves the same canonical query from
// the LRU. The gap is what the cache buys every repeated interactive query.
func BenchmarkServeExtract(b *testing.B) {
	s := New(Config{CacheEntries: 64})
	if _, err := s.Preload(CreateSessionRequest{
		Name: "bench", Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3,
	}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := fmt.Sprintf(`{"labels":[%q,%q],"budget":20}`, dblp.NamePhilipYu, dblp.NameFlipKorn)

	do := func(b *testing.B) {
		req := httptest.NewRequest(http.MethodPost, "/sessions/bench/extract", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.reset()
			do(b)
		}
	})
	b.Run("hit", func(b *testing.B) {
		do(b) // warm the cache once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b)
		}
	})
}

// BenchmarkServeExtractThroughput contrasts two ways of answering the same
// 8 distinct multi-source extractions through the HTTP layer, cold cache
// every iteration: "sequential" issues 8 single requests and "batch" one
// extract/batch call that fans the items out over the server-side worker
// pool. The spread is what batching buys a dashboard.
func BenchmarkServeExtractThroughput(b *testing.B) {
	s := New(Config{CacheEntries: 256})
	if _, err := s.Preload(CreateSessionRequest{
		Name: "bench", Source: "synthetic", Scale: 0.02, Seed: 7, K: 3, Levels: 3,
	}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const items = 8
	reqs := make([]ExtractRequest, items)
	for i := range reqs {
		// Distinct source sets so nothing hits the cache within a pass.
		reqs[i] = ExtractRequest{Sources: []graph.NodeID{graph.NodeID(10 + i), graph.NodeID(500 + 40*i), graph.NodeID(1200 + 17*i)}, Budget: 20}
	}
	do := func(b *testing.B, method, path string, payload any) {
		body, err := json.Marshal(payload)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.reset()
			for _, r := range reqs {
				do(b, http.MethodPost, "/sessions/bench/extract", r)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.reset()
			do(b, http.MethodPost, "/sessions/bench/extract/batch", BatchExtractRequest{Requests: reqs})
		}
	})
}

// BenchmarkServeScene measures Tomahawk scene rendering through the HTTP
// layer, cold versus cached.
func BenchmarkServeScene(b *testing.B) {
	s := New(Config{CacheEntries: 64})
	if _, err := s.Preload(CreateSessionRequest{
		Name: "bench", Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3,
	}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	do := func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/sessions/bench/scene?format=svg&grandchildren=true", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.cache.reset()
			do(b)
		}
	})
	b.Run("hit", func(b *testing.B) {
		do(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b)
		}
	})
}
