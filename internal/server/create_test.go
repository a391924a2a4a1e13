package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// panicFile is a storage.File whose every read panics.
type panicFile struct{ storage.File }

func (panicFile) ReadAt([]byte, int64) (int, error) { panic("read of a poisoned file") }

// TestCreateSessionPanicReleasesName: an open that panics answers 500 and
// registers nothing, so a later GET of the session answers 404 at once.
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

// TestCreateSessionRefusesBuilds: POST /sessions answers a "synthetic" or
// "edges" body with 400 and the offline-build guidance, over a valid edge
// list too, and registers nothing; Preload still builds both.
func TestCreateSessionRefusesBuilds(t *testing.T) {
	s, ts := newTestServer(t)
	_, edgesPath := saveFixtureTree(t, 256)
	for _, req := range []CreateSessionRequest{
		{Name: "syn", Source: "synthetic", Scale: 0.01, Seed: 7, K: 3, Levels: 3},
		{Name: "ed", Source: "edges", Path: edgesPath, K: 3, Levels: 3},
	} {
		resp := postJSON(t, ts.URL+"/sessions", req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s session: status %d (%s), want 400", req.Source, resp.StatusCode, body)
		}
		if bytes.Count(body, []byte("\n")) != 1 ||
			!bytes.Contains(body, []byte(`gmine build -in g.edges -out g.gtree`)) {
			t.Fatalf("POST %s session: %s, want the one-line build guidance", req.Source, body)
		}
		if _, ok := s.reg.get(req.Name); ok {
			t.Fatalf("refused %s create registered a session", req.Source)
		}
		if _, err := s.Preload(req); err != nil {
			t.Fatalf("Preload of a %s session: %v", req.Source, err)
		}
	}
}

// gatedFiles wraps every file a server opens: it counts opens and closes,
// and holds each open until gate is closed.
type gatedFiles struct {
	opens, closes atomic.Int64
	gate          chan struct{}
}

func (g *gatedFiles) wrap(f storage.File) storage.File {
	g.opens.Add(1)
	<-g.gate
	return countedFile{f, g}
}

type countedFile struct {
	storage.File
	g *gatedFiles
}

func (f countedFile) Close() error {
	f.g.closes.Add(1)
	return f.File.Close()
}

// TestCreateSessionSameName: many clients open one G-Tree file under one
// name at once, each past the early name check before any registers.
// Exactly one wins (201), every other answer is 409, every losing engine's
// file is closed, and /healthz and GET /sessions never list a session
// whose info fails. Run under -race.
func TestCreateSessionSameName(t *testing.T) {
	files := gatedFiles{gate: make(chan struct{})}
	s := New(Config{
		CacheEntries: 8, RequestTimeout: 30 * time.Second, FaultWrap: files.wrap,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { // a failed wait must not leave handlers blocked
		select {
		case <-files.gate:
		default:
			close(files.gate)
		}
	})
	gtreePath, _ := saveFixtureTree(t, 256)
	body := `{"name":"x","source":"gtree","path":` + jsonQuote(gtreePath) + `}`

	// The poller checks that every listed name answers its info.
	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		pollErr <- func() error {
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					return err
				}
				var health struct{ Sessions []string }
				err = decodeJSON(resp, &health)
				if err != nil {
					return err
				}
				for _, name := range health.Sessions {
					resp, err := http.Get(ts.URL + "/sessions/" + name)
					if err != nil {
						return err
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						return fmt.Errorf("/healthz lists %q, whose info answers %d", name, resp.StatusCode)
					}
				}
				resp, err = http.Get(ts.URL + "/sessions")
				if err != nil {
					return err
				}
				var list struct{ Sessions []SessionInfo }
				if err := decodeJSON(resp, &list); err != nil {
					return err
				}
				for _, info := range list.Sessions {
					if info.Name != "x" || info.Nodes == 0 {
						return fmt.Errorf("GET /sessions lists %+v", info)
					}
				}
			}
		}()
	}()

	const clients = 8
	codes := make([]int, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				return // codes[i] stays 0 and fails the tally
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	close(start)
	// Every client holds an open file before any engine exists, so every
	// client passed the early check and the registry alone picks the winner.
	waitFor(t, "every client to open the file", func() bool { return files.opens.Load() == clients })
	close(files.gate)
	wg.Wait()
	close(stop)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}

	created := 0
	for i, code := range codes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
		default:
			t.Fatalf("client %d: status %d, want 201 or 409", i, code)
		}
	}
	if created != 1 {
		t.Fatalf("%d clients created the session, want exactly 1 (statuses %v)", created, codes)
	}
	if closes := files.closes.Load(); closes != clients-1 {
		t.Fatalf("%d files closed, want the %d losers'", closes, clients-1)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/x", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if closes := files.closes.Load(); closes != clients {
		t.Fatalf("after delete %d of %d files closed", closes, clients)
	}
}

// decodeJSON decodes and closes resp's body, failing on a non-200.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", resp.Request.URL.Path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestOversizeBodiesAnswer413: session, extract and batch bodies past
// their byte caps answer 413 with the JSON error body before they are
// decoded, while a legal batch padded to its cap exactly still answers 200.
func TestOversizeBodiesAnswer413(t *testing.T) {
	s := New(Config{CacheEntries: 8, RequestTimeout: 30 * time.Second, MaxBudget: 30, MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSynthetic(t, s, "dblp")

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	// More distinct sources than any legal budget, and more bytes than the
	// cap allows. Each body is a few times its cap, not megabytes, so the
	// client is done sending before the server closes the connection.
	var ids strings.Builder
	for i := range 4000 {
		if i > 0 {
			ids.WriteByte(',')
		}
		ids.WriteString(fmt.Sprint(i))
	}
	item := `{"sources":[` + ids.String() + `]}`
	for path, body := range map[string]string{
		"/sessions/dblp/extract":       item,
		"/sessions/dblp/extract/batch": `{"requests":[` + strings.Repeat(item+",", 4) + item + `]}`,
		"/sessions":                    `{"name":"x","source":"gtree","path":"` + strings.Repeat("a/", 10<<10) + `"}`,
	} {
		code, b := post(path, body)
		var apiErr apiError
		if code != http.StatusRequestEntityTooLarge || json.Unmarshal(b, &apiErr) != nil ||
			!strings.Contains(apiErr.Error, "body exceeds") {
			t.Fatalf("POST %s with %d bytes: status %d (%s), want 413 and a JSON error", path, len(body), code, b)
		}
	}

	legal := `{"requests":[` + strings.Repeat(`{"sources":[1,5],"budget":10},`, 3) +
		`{"sources":[1,5],"budget":10}]`
	limit := int(s.batchBodyBytes())
	pad := func(n int) string { return legal + strings.Repeat(" ", n-len(legal)-1) + "}" }
	if code, b := post("/sessions/dblp/extract/batch", pad(limit)); code != http.StatusOK {
		t.Fatalf("legal batch of exactly %d bytes: status %d (%s), want 200", limit, code, b)
	}
	if code, b := post("/sessions/dblp/extract/batch", pad(limit+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("legal batch one byte past the %d-byte cap: status %d (%s), want 413", limit, code, b)
	}
}

// TestPoolPagesHintBounded: a client's poolPages sizes the pool's capacity
// but not its up-front allocation, which is bounded by the file's page
// count. 1<<23 pages would pre-size a frame map of about 290 MB.
func TestPoolPagesHintBounded(t *testing.T) {
	_, ts := newTestServer(t)
	gtreePath, _ := saveFixtureTree(t, 256)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	const poolPages = 1 << 23
	resp := postJSON(t, ts.URL+"/sessions", CreateSessionRequest{
		Name: "big-pool", Source: "gtree", Path: gtreePath, PoolPages: poolPages,
	})
	info := decodeBody[SessionInfo](t, resp)
	metrics.Read(allocs)
	if rose := allocs[0].Value.Uint64() - before; rose >= 64<<20 {
		t.Fatalf("opening with poolPages %d allocated %d MB, want < 64 MB", poolPages, rose>>20)
	}
	if info.Pool == nil || info.Pool.Capacity != poolPages {
		t.Fatalf("pool %+v, want capacity %d reported", info.Pool, poolPages)
	}
}
