package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/bench/wire"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/server"
)

// served is the in-process twin of `gmine serve`: the same server package,
// the same preload the CLI flags would make, with the counting file under
// disk sessions.
type served struct {
	handler http.Handler
	reads   *readStats
}

func newServed(job *wire.Job) (*served, error) {
	reads := &readStats{}
	srv := server.New(server.Config{
		CacheEntries: job.Server.CacheEntries,
		FaultWrap:    reads.wrap,
		Logger:       slog.New(slog.DiscardHandler),
	})
	req := server.CreateSessionRequest{Name: "default", Seed: job.Seed, K: job.K, Levels: job.Levels}
	if job.Server.Disk {
		req.Source, req.Path = "gtree", job.Tree
		req.PoolPages, req.TierBudget = job.Server.PoolPages, job.Server.TierBudget
	} else {
		req.Source, req.Path = "edges", job.Edges
	}
	if _, err := srv.Preload(req); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	return &served{handler: srv.Handler(), reads: reads}, nil
}

// do runs one request through the handler chain and returns status, the
// X-Gmine-Cache state and the body.
func (s *served) do(req wire.Request) (int, string, []byte) {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	r := httptest.NewRequest(req.Method, "/sessions/default"+req.Path, body)
	w := httptest.NewRecorder()
	s.handler.ServeHTTP(w, r)
	return w.Code, w.Header().Get("X-Gmine-Cache"), w.Body.Bytes()
}

// poolInfo is the part of the in-process /healthz the probe reads.
type poolInfo struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Retry     struct {
		Retries uint64 `json:"Retries"`
	} `json:"retry"`
	Tier *gtree.TierInfo `json:"tier"`
}

func (s *served) pool() (poolInfo, error) {
	w := httptest.NewRecorder()
	s.handler.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	var h struct {
		Pools map[string]poolInfo `json:"pools"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		return poolInfo{}, fmt.Errorf("/healthz: %w", err)
	}
	return h.Pools["default"], nil
}

// handlerRun is what the handler-level replay saw for one request.
type handlerRun struct {
	ms    float64
	cache string
	reads readSnapshot
}

// replayHandlers sends every request of the pass through the in-process
// server, in order, so its result cache, pool and tier evolve as the real
// server's did. Spans: request (root) -> server.handler, with the page
// reads that happened underneath as counts on the handler span.
func replayHandlers(job *wire.Job, sv *served, rec *recorder) ([]handlerRun, error) {
	runs := make([]handlerRun, len(job.Requests))
	for i, req := range job.Requests {
		root := rec.begin(-1, i, "request")
		before := sv.reads.snapshot()
		h := rec.begin(root, i, "server.handler")
		code, cache, body := sv.do(req)
		d := rec.end(h)
		rec.end(root)
		if code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.Path, code, body)
		}
		runs[i] = handlerRun{ms: ms(d), cache: cache, reads: sv.reads.snapshot().sub(before)}
		rec.count(h, "storage.read_calls", runs[i].reads.calls)
		rec.count(h, "storage.read_bytes", runs[i].reads.bytes)
		rec.count(h, "storage.read_ns", runs[i].reads.ns)
		if cache == "hit" {
			rec.count(h, "server.cache_hit", 1)
		}
	}
	return runs, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// twin is an engine the probe opens itself, configured as the server
// configures its own (handlers.go buildEngine), so the probe can call the
// engine API directly and hook the stages underneath.
type twin struct {
	eng   *core.Engine
	reads *readStats
}

func openTwin(job *wire.Job, mem *core.Engine) (*twin, error) {
	if !job.Server.Disk {
		return &twin{eng: mem, reads: &readStats{}}, nil
	}
	reads := &readStats{}
	eng, err := core.OpenEngineWrapped(job.Tree, job.Server.PoolPages, reads.wrap)
	if err != nil {
		return nil, err
	}
	eng.SetPoolQuota(0)
	eng.SetSweepShards(0)
	eng.SetTierBudget(job.Server.TierBudget)
	return &twin{eng: eng, reads: reads}, nil
}

// engineRun is what the engine-level replay saw for one request.
type engineRun struct {
	done                bool
	ms                  float64
	rwr, expand, induce float64 // extraction stages, ms
}

// call performs the engine work behind one request, the way the handler
// does, recording core.<op> and its stages under parent.
func (t *twin) call(req wire.Request, idx int, rec *recorder) (engineRun, error) {
	var run engineRun
	root := rec.begin(-1, idx, "core."+req.Kind)
	var err error
	switch req.Kind {
	case wire.KindExtract:
		opts := extract.Options{Budget: req.Want.Budget, RWR: extract.RWROptions{Restart: req.Want.Restart}}
		opts.StageHook = func(stage string, start time.Time, d time.Duration) {
			rec.add(root, idx, "extract."+stage, start, d)
			switch stage {
			case "rwr":
				run.rwr = ms(d)
			case "expand":
				run.expand = ms(d)
			case "induce":
				run.induce = ms(d)
			}
		}
		sources := make([]graph.NodeID, len(req.Want.Sources))
		for i, s := range req.Want.Sources {
			sources[i] = graph.NodeID(s)
		}
		_, err = t.eng.Extract(sources, opts)
	case wire.KindGraphAnalysis:
		_, err = t.eng.AnalyzeGraph(analysis.PageRankOptions{}, req.Want.TopK)
	case wire.KindScene:
		_, err = t.eng.SceneAt(gtree.TreeID(req.Want.Community), gtree.TomahawkOptions{})
	case wire.KindSceneSVG:
		_, err = t.eng.RenderSceneAt(gtree.TreeID(req.Want.Community), 900, gtree.TomahawkOptions{Grandchildren: true})
	case wire.KindTree:
		t.eng.Tree().ComputeStats()
	case wire.KindLabelExact:
		_, err = t.eng.FindLabel(req.Want.Label)
	case wire.KindLabelPrefix:
		_, err = t.eng.SearchLabelPrefix(req.Want.Label, 10)
	case wire.KindLeafAnalysis:
		load := rec.begin(root, idx, "gtree.leaf_subgraph")
		sub, _, lerr := t.eng.LeafSubgraph(gtree.TreeID(req.Want.Community))
		rec.end(load)
		if err = lerr; err == nil {
			rp := rec.begin(root, idx, "analysis.report")
			analysis.Report(sub, 0, req.Want.Seed)
			rec.end(rp)
		}
	default:
		err = fmt.Errorf("no engine call for kind %q", req.Kind)
	}
	run.ms = ms(rec.end(root))
	run.done = err == nil
	if err != nil {
		return run, fmt.Errorf("%s %s: %w", req.Kind, req.Path, err)
	}
	return run, nil
}

// replayEngine repeats, on the twin, the engine work of every request that
// reached the server's engine (result-cache hits did not), until the time
// budget runs out. Skipping hits keeps the twin's pool and tier on the
// same history as the server's.
func replayEngine(job *wire.Job, t *twin, handled []handlerRun, rec *recorder) ([]engineRun, error) {
	for _, req := range job.Warmup {
		if _, err := t.call(req, -1, rec); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runs := make([]engineRun, len(job.Requests))
	deadline := time.Now().Add(time.Duration(job.ReplaySeconds * float64(time.Second)))
	for i, req := range job.Requests {
		if time.Now().After(deadline) {
			break
		}
		if handled[i].cache == "hit" {
			continue
		}
		run, err := t.call(req, i, rec)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// sameExtraction reports whether two extraction results are the same
// subgraph with bit-identical goodness: the cross-backend contract.
func sameExtraction(a, b *extract.Result) bool {
	if len(a.Nodes) != len(b.Nodes) || a.Subgraph.NumEdges() != b.Subgraph.NumEdges() || a.TotalGoodness != b.TotalGoodness {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Goodness[i] != b.Goodness[i] {
			return false
		}
	}
	return true
}
