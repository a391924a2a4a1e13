package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestCreateSessionCancelledByDisconnect: a client that goes away while
// POST /sessions is building stops the build at the next community split;
// the reservation is aborted, so the name is free again, no session is
// listed and nothing keeps running.
func TestCreateSessionCancelledByDisconnect(t *testing.T) {
	s, ts := newTestServer(t)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	baseline := runtime.NumGoroutine()

	body, err := json.Marshal(CreateSessionRequest{Name: "big", Source: "synthetic", Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// The name is reserved before the build starts: from here on the
	// multi-second build is under way, and the client hangs up.
	waitFor(t, "the reservation", func() bool { _, ok := s.reg.get("big"); return ok })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	// A build that ran to completion would commit and keep the name.
	waitFor(t, "the aborted reservation", func() bool { _, ok := s.reg.get("big"); return !ok })
	if names := s.reg.list(); len(names) != 0 {
		t.Fatalf("sessions listed after a cancelled create: %v", names)
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })

	// The name is usable again.
	info := createSynthetic(t, ts, "big")
	if info.Name != "big" {
		t.Fatalf("re-created session is %q", info.Name)
	}
}

// TestCreateSessionCancelledStatus: a cancelled build is reported as the
// client's own cancellation (499), not as a bad request.
func TestCreateSessionCancelledStatus(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, err := s.createSession(ctx, CreateSessionRequest{
		Name: "gone", Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3,
	})
	if !errors.Is(err, context.Canceled) || status != statusClientClosedRequest {
		t.Fatalf("cancelled create returned status %d, err %v; want 499, context.Canceled", status, err)
	}
	if _, ok := s.reg.get("gone"); ok {
		t.Fatal("cancelled create left its reservation behind")
	}
}

// panicFile is a storage.File whose every read panics.
type panicFile struct{ storage.File }

func (panicFile) ReadAt([]byte, int64) (int, error) { panic("read of a poisoned file") }

// TestCreateSessionPanicReleasesName: a build that panics answers 500 and
// releases the reserved name, so a later GET of the session answers 404 at
// once instead of queueing forever behind a build lock nobody holds.
func TestCreateSessionPanicReleasesName(t *testing.T) {
	s := New(Config{
		CacheEntries: 8, RequestTimeout: 30 * time.Second,
		FaultWrap: func(f storage.File) storage.File { return panicFile{f} },
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	// http.Server.Close, unlike httptest.Server.Close, does not wait for
	// handlers, so a session left locked fails the test instead of hanging
	// it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	base := "http://" + ln.Addr().String()
	gtreePath, _ := saveFixtureTree(t, 256)

	resp := postJSON(t, base+"/sessions", CreateSessionRequest{Name: "x", Source: "gtree", Path: gtreePath})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create over a panicking file: status %d, want 500", resp.StatusCode)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err = client.Get(base + "/sessions/x")
	if err != nil {
		t.Fatalf("GET of the failed session: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the failed session: status %d, want 404", resp.StatusCode)
	}
}
