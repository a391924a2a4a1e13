package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/storage"
)

const jsonContentType = "application/json; charset=utf-8"

// --- Response plumbing ----------------------------------------------------

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	_, _ = w.Write(marshalJSON(v))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// session resolves the {id} path segment, writing a 404 on failure.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	name := r.PathValue("id")
	sess, ok := s.reg.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", name)
		return nil, false
	}
	return sess, true
}

// serveCached writes a cachedResult to the response, reporting the cache
// state in the X-Gmine-Cache header (aggregated on /healthz) and on the
// request trace. With ?trace=1 on a JSON route the response becomes a
// {"trace", "result"} envelope: the cache stores the bare result body
// (shared by traced and untraced callers alike), and the per-request stage
// breakdown wraps it on the way out. A cache hit legitimately shows no
// engine stages — the trace's cache note says why.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string,
	build func() (body []byte, ctyp string, errStatus int, err error)) {
	body, ctyp, state, errStatus, err := s.cachedResult(r.Context(), key, build)
	tr := traceFrom(r.Context())
	tr.Note("cache", state)
	if s.refuse(w, r, err, errStatus) {
		return
	}
	w.Header().Set("X-Gmine-Cache", state)
	w.Header().Set("Content-Type", ctyp)
	if tr != nil && ctyp == jsonContentType && r.URL.Query().Get("trace") == "1" {
		envelope := struct {
			Trace  obs.TraceData   `json:"trace"`
			Result json.RawMessage `json:"result"`
		}{tr.Snapshot(), json.RawMessage(body)}
		_, _ = w.Write(marshalJSON(envelope))
		return
	}
	_, _ = w.Write(body)
}

// errBackendFault marks server-side storage failures (corrupt sections,
// failed index reads) so they surface as 500s, not client errors.
var errBackendFault = errors.New("backend fault")

// statusOf maps session-level errors to HTTP statuses: gone sessions are
// 404, backend storage faults (including paged-read failures mid-query)
// are 500, cancelled work is classified by who gave up — the client (499,
// connection is gone anyway) or the request deadline (503, retryable) —
// an open circuit breaker is a retryable 503, and everything else gets
// the caller's fallback.
func statusOf(err error, fallback int) int {
	switch {
	case errors.Is(err, errSessionGone):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, errBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBackendFault), errors.Is(err, core.ErrPagedIO):
		return http.StatusInternalServerError
	}
	return fallback
}

// Request body caps. A legal extraction names at most Config.MaxBudget
// distinct sources (the solver refuses more than its budget), each as an id
// or a label of about sourceBytes; bodyFrameBytes covers the options and
// the JSON around them. A session body is a name, a path and a few numbers.
const (
	bodyFrameBytes   = 4 << 10
	sourceBytes      = 256
	sessionBodyBytes = 16 << 10
)

func (s *Server) extractBodyBytes() int64 {
	return bodyFrameBytes + int64(s.cfg.MaxBudget)*sourceBytes
}

func (s *Server) batchBodyBytes() int64 {
	return bodyFrameBytes + int64(s.cfg.MaxBatch)*s.extractBodyBytes()
}

// readJSON decodes r's body into v, rejecting unknown fields and bodies
// over limit bytes. On failure it writes the 413 or 400 and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, limit)
	default:
		writeError(w, http.StatusBadRequest, "bad %s body: %s", what, err)
	}
	return false
}

// marshalJSON encodes every JSON body the server writes: compact, on one
// line ending in a newline (pipe a body through `jq .` to read it
// indented).
func marshalJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// --- /healthz -------------------------------------------------------------

type healthResponse struct {
	Status        string     `json:"status"`
	UptimeSeconds float64    `json:"uptimeSeconds"`
	Goroutines    int        `json:"goroutines"`
	InFlight      int64      `json:"inFlight"`
	Sessions      []string   `json:"sessions"`
	Cache         CacheStats `json:"cache"`
	// Pools reports per-session buffer-pool counters for disk-backed
	// (gtree) sessions — the observability surface of out-of-core
	// behavior: misses and evictions growing under extraction show the
	// engine paging the graph instead of loading it.
	Pools map[string]PoolInfo `json:"pools,omitempty"`
}

// PoolInfo is the wire form of a disk-backed session's buffer-pool state.
type PoolInfo = gtree.PoolInfo

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		InFlight:      s.metrics.inFlight.Value(),
		Sessions:      []string{},
		Cache:         s.cache.snapshot(),
	}
	// Pool rows come from the non-blocking snapshot path: a write-locked
	// session has no row this time, and the probe never waits on it.
	for _, sess := range s.reg.list() {
		resp.Sessions = append(resp.Sessions, sess.name)
		if pi := sess.poolSnapshot(); pi != nil {
			if resp.Pools == nil {
				resp.Pools = make(map[string]PoolInfo)
			}
			resp.Pools[sess.name] = *pi
		}
	}
	if s.refuse(w, r, nil, 0) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /sessions -------------------------------------------------------

// CreateSessionRequest is the body of POST /sessions and of Server.Preload.
type CreateSessionRequest struct {
	// Name identifies the session in URLs ([A-Za-z0-9._-], max 64).
	Name string `json:"name"`
	// Source selects the backend: "gtree" opens the persisted G-Tree at
	// Path, disk-backed. "synthetic" (DBLP generator) and "edges"
	// (edge-list file at Path) build a hierarchy in memory; only
	// Server.Preload builds, and POST /sessions refuses them.
	Source string `json:"source"`
	// Path locates the input file for "edges" and "gtree" sources.
	Path string `json:"path"`
	// Scale sizes the synthetic DBLP graph (default 0.1).
	Scale float64 `json:"scale"`
	// Seed drives generation and partitioning.
	Seed int64 `json:"seed"`
	// K / Levels configure the hierarchy build (built sources only;
	// defaults K=5, Levels=5).
	K      int `json:"k"`
	Levels int `json:"levels"`
	// PoolPages bounds the buffer pool of "gtree" sources (0 = default).
	PoolPages int `json:"poolPages"`
	// TierBudget is the byte budget of a "gtree" session's hot tier (0 =
	// tiering off): while it covers the decoded CSR, the session promotes
	// the whole graph into memory after its first query. It is an execution
	// knob: tiered reads are bit-identical to paged ones.
	TierBudget int64 `json:"tierBudget"`

	IgnoredSessionFields
}

// IgnoredSessionFields are session-body fields of knobs that no longer
// exist. They are accepted so bodies that still send them decode (the body
// decoder rejects unknown fields), and the server reads none of them.
type IgnoredSessionFields struct {
	// SweepShards: whole-graph sweeps are always serial.
	SweepShards int `json:"sweepShards,omitempty"`
	// PoolQuota: the buffer pool is one LRU and reserves no frames for any
	// query.
	PoolQuota int `json:"poolQuota,omitempty"`
	// Method and MinCommunity: a built session always splits with the
	// multilevel partitioner down to communities of 2*K nodes.
	Method       string `json:"method,omitempty"`
	MinCommunity int    `json:"minCommunity,omitempty"`
}

func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	// "." and ".." pass the character check but are path-cleaned away by
	// ServeMux, leaving a session that can never be addressed or deleted.
	if s == "." || s == ".." {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// errBuildOffline answers a POST /sessions that asks the server to build a
// hierarchy: clients open G-Tree files, built offline.
const errBuildOffline = `source %q builds a G-Tree, which the server does only at start-up; ` +
	`build it offline instead: "gmine generate -out g.edges" (synthetic only), ` +
	`"gmine build -in g.edges -out g.gtree", then POST {"source":"gtree","path":"g.gtree"}`

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !readJSON(w, r, sessionBodyBytes, "session", &req) {
		return
	}
	if req.Source == "synthetic" || req.Source == "edges" {
		writeError(w, http.StatusBadRequest, errBuildOffline, req.Source)
		return
	}
	info, status, err := s.createSession(req)
	if err != nil {
		writeError(w, status, "%s", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// Preload registers a session outside HTTP; it is the one path that builds
// a hierarchy ("synthetic" and "edges" sources). The CLI uses it to come
// up warm before the listener opens.
func (s *Server) Preload(req CreateSessionRequest) (SessionInfo, error) {
	info, _, err := s.createSession(req)
	return info, err
}

// createSession validates req, constructs its engine outside the registry
// and registers it, so a session is listed only once its engine exists.
// The returned status accompanies a non-nil error. A name taken while the
// engine was constructed answers 409, and the new engine is closed.
func (s *Server) createSession(req CreateSessionRequest) (SessionInfo, int, error) {
	if !validName(req.Name) {
		return SessionInfo{}, http.StatusBadRequest,
			fmt.Errorf("session name must be 1-64 chars of [A-Za-z0-9._-]")
	}
	switch req.Source {
	case "synthetic", "edges", "gtree":
	default:
		return SessionInfo{}, http.StatusBadRequest,
			fmt.Errorf("source must be one of synthetic, edges, gtree (got %q)", req.Source)
	}
	if (req.Source == "edges" || req.Source == "gtree") && req.Path == "" {
		return SessionInfo{}, http.StatusBadRequest, fmt.Errorf("source %q needs a path", req.Source)
	}
	if _, ok := s.reg.get(req.Name); ok {
		return SessionInfo{}, http.StatusConflict, errSessionExists(req.Name)
	}
	begin := time.Now()
	eng, err := buildEngine(req, s.cfg.FaultWrap)
	if err != nil {
		return SessionInfo{}, statusOf(err, http.StatusBadRequest), fmt.Errorf("build failed: %w", err)
	}
	sess, err := s.reg.add(req.Name, req.Source, eng, time.Since(begin).Milliseconds())
	if err != nil {
		_ = eng.Close()
		return SessionInfo{}, http.StatusConflict, err
	}
	info, err := sess.info()
	if err != nil {
		return SessionInfo{}, statusOf(err, http.StatusInternalServerError), err
	}
	return info, http.StatusCreated, nil
}

// buildEngine constructs the engine behind a session. wrap (nil = none)
// interposes on the backing file of disk-backed sessions — the server's
// chaos fault injection seam.
func buildEngine(req CreateSessionRequest, wrap func(storage.File) storage.File) (*core.Engine, error) {
	cfg := core.BuildConfig{K: req.K, Levels: req.Levels, Seed: req.Seed}
	if cfg.K <= 0 {
		cfg.K = 5
	}
	if cfg.Levels <= 0 {
		cfg.Levels = 5
	}
	switch req.Source {
	case "synthetic":
		ds := dblp.Generate(dblp.Config{Scale: req.Scale, Seed: req.Seed})
		return core.BuildEngine(ds.Graph, cfg)
	case "edges":
		f, err := os.Open(req.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Path, err)
		}
		g.Dedup()
		return core.BuildEngine(g, cfg)
	case "gtree":
		eng, err := core.OpenEngineWrapped(req.Path, req.PoolPages, wrap)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Path, err)
		}
		eng.SetTierBudget(req.TierBudget)
		return eng, nil
	}
	return nil, fmt.Errorf("unreachable source %q", req.Source)
}

// --- GET /sessions, GET/DELETE /sessions/{id} -----------------------------

// handleListSessions lists the registered sessions; one deleted while the
// list is built is left out.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	infos := make([]SessionInfo, 0)
	for _, sess := range s.reg.list() {
		if info, err := sess.info(); err == nil {
			infos = append(infos, info)
		}
	}
	if s.refuse(w, r, nil, 0) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	info, err := sess.info()
	if s.refuse(w, r, err, statusOf(err, http.StatusInternalServerError)) {
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	if err := s.reg.remove(name); err != nil {
		writeError(w, http.StatusNotFound, "%s", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// --- GET /sessions/{id}/tree ----------------------------------------------

type communityJSON struct {
	ID       gtree.TreeID `json:"id"`
	Parent   gtree.TreeID `json:"parent"`
	Level    int          `json:"level"`
	Size     int          `json:"size"`
	Children int          `json:"children"`
	Leaf     bool         `json:"leaf"`
}

type treeResponse struct {
	Session     string          `json:"session"`
	Communities int             `json:"communities"`
	Leaves      int             `json:"leaves"`
	Levels      int             `json:"levels"`
	PerLevel    []int           `json:"perLevel"`
	AvgLeafSize float64         `json:"avgLeafSize"`
	MinLeafSize int             `json:"minLeafSize"`
	MaxLeafSize int             `json:"maxLeafSize"`
	ConnEdges   int             `json:"connEdges"`
	Listing     []communityJSON `json:"listing,omitempty"`
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	level, hasLevel := -1, false
	if v := r.URL.Query().Get("level"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad level %q", v)
			return
		}
		level, hasLevel = n, true
	}
	listing := r.URL.Query().Get("listing") != "false"
	var resp treeResponse
	err := sess.withRead(func(eng *core.Engine) error {
		t := eng.Tree()
		st := t.ComputeStats()
		resp = treeResponse{
			Session:     sess.name,
			Communities: st.Communities,
			Leaves:      st.Leaves,
			Levels:      st.Levels,
			PerLevel:    st.PerLevel,
			AvgLeafSize: st.AvgLeafSize,
			MinLeafSize: st.MinLeafSize,
			MaxLeafSize: st.MaxLeafSize,
			ConnEdges:   st.ConnEdges,
		}
		if listing {
			for id := gtree.TreeID(0); int(id) < t.NumCommunities(); id++ {
				n := t.Node(id)
				if hasLevel && n.Level != level {
					continue
				}
				resp.Listing = append(resp.Listing, communityJSON{
					ID: id, Parent: n.Parent, Level: n.Level, Size: n.Size,
					Children: len(n.Children), Leaf: n.IsLeaf(),
				})
			}
		}
		return nil
	})
	if s.refuse(w, r, err, statusOf(err, http.StatusInternalServerError)) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- GET /sessions/{id}/scene ---------------------------------------------

type sceneResponse struct {
	Session       string          `json:"session"`
	Focus         gtree.TreeID    `json:"focus"`
	FocusLevel    int             `json:"focusLevel"`
	FocusSize     int             `json:"focusSize"`
	Ancestors     []gtree.TreeID  `json:"ancestors"`
	Siblings      []gtree.TreeID  `json:"siblings"`
	Children      []gtree.TreeID  `json:"children"`
	Grandchildren []gtree.TreeID  `json:"grandchildren,omitempty"`
	Edges         []sceneEdgeJSON `json:"edges"`
}

type sceneEdgeJSON struct {
	A      gtree.TreeID `json:"a"`
	B      gtree.TreeID `json:"b"`
	Count  int          `json:"count"`
	Weight float64      `json:"weight"`
}

func (s *Server) handleScene(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	focus := 0
	if v := q.Get("focus"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad focus %q", v)
			return
		}
		focus = n
	}
	grand := q.Get("grandchildren") == "true"
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "svg" {
		writeError(w, http.StatusBadRequest, "format must be json or svg (got %q)", format)
		return
	}
	size := 900.0
	if v := q.Get("size"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 64 || f > 8192 {
			writeError(w, http.StatusBadRequest, "bad size %q (want 64..8192)", v)
			return
		}
		size = f
	}
	opts := gtree.TomahawkOptions{Grandchildren: grand}
	keySize := size
	if format == "json" {
		keySize = 0 // size only shapes the SVG
	}
	key := sess.cacheKey(fmt.Sprintf("scene|f=%d|g=%t|fmt=%s|sz=%g", focus, grand, format, keySize))
	s.serveCached(w, r, key, func() ([]byte, string, int, error) {
		return engineBody(sess.withRead, http.StatusBadRequest, func(eng *core.Engine) ([]byte, string, error) {
			if format == "svg" {
				doc, err := eng.RenderSceneAt(gtree.TreeID(focus), size, opts)
				return []byte(doc), render.ContentType, err
			}
			sc, err := eng.SceneAt(gtree.TreeID(focus), opts)
			if err != nil {
				return nil, "", err
			}
			n := eng.Tree().Node(sc.Focus)
			resp := sceneResponse{
				Session:    sess.name,
				Focus:      sc.Focus,
				FocusLevel: n.Level,
				FocusSize:  n.Size,
				Ancestors:  emptyIfNil(sc.Ancestors),
				Siblings:   emptyIfNil(sc.Siblings),
				Children:   emptyIfNil(sc.Children),
			}
			resp.Grandchildren = sc.Grandchildren
			resp.Edges = make([]sceneEdgeJSON, 0, len(sc.Edges))
			for _, e := range sc.Edges {
				resp.Edges = append(resp.Edges, sceneEdgeJSON{A: e.A, B: e.B, Count: e.Count, Weight: e.Weight})
			}
			return marshalJSON(resp), jsonContentType, nil
		})
	})
}

// engineBody is a cachedResult build: fn renders one body from the
// session's engine under read (withRead, or guardedRead behind the
// breaker): an error maps through statusOf, falling back to fallback.
func engineBody(read func(func(*core.Engine) error) error,
	fallback int, fn func(eng *core.Engine) ([]byte, string, error)) ([]byte, string, int, error) {
	var body []byte
	var ctyp string
	err := read(func(eng *core.Engine) error {
		var err error
		body, ctyp, err = fn(eng)
		return err
	})
	if err != nil {
		return nil, "", statusOf(err, fallback), err
	}
	return body, ctyp, 0, nil
}

func emptyIfNil(ids []gtree.TreeID) []gtree.TreeID {
	if ids == nil {
		return []gtree.TreeID{}
	}
	return ids
}

// --- POST /sessions/{id}/extract -------------------------------------------

// ExtractRequest is the body of POST /sessions/{id}/extract. Sources may
// be given as node ids or labels (at least one of the two, both allowed).
type ExtractRequest struct {
	Sources []graph.NodeID `json:"sources"`
	Labels  []string       `json:"labels"`
	// Budget caps output nodes (default 30, capped by Config.MaxBudget).
	Budget int `json:"budget"`
	// Restart is the RWR restart probability (default 0.15).
	Restart float64 `json:"restart"`
	// Mode combines per-source goodness: "and" (default), "or", "ksoft".
	Mode string `json:"mode"`
	// K is the soft-AND particle count for mode "ksoft".
	K int `json:"k"`
	// MaxPathLen caps key-path length (default 10).
	MaxPathLen int `json:"maxPathLen"`
	// Format selects "json" (default) or "svg".
	Format string `json:"format"`
	// Size is the SVG canvas (default 800); Seed drives the SVG layout.
	Size float64 `json:"size"`
	Seed int64   `json:"seed"`
	// Parallel is accepted and ignored by the solver: the per-source RWR
	// solves used to fan out over a worker pool of this size and now share
	// one sweep per iteration. It never changed results and never entered
	// the cache key; in a batch it still bounds concurrent items.
	Parallel int `json:"parallel"`
}

type extractNodeJSON struct {
	ID       graph.NodeID `json:"id"`
	Label    string       `json:"label,omitempty"`
	Goodness float64      `json:"goodness"`
	Source   bool         `json:"source,omitempty"`
}

type extractEdgeJSON struct {
	A      graph.NodeID `json:"a"`
	B      graph.NodeID `json:"b"`
	Weight float64      `json:"weight"`
}

type extractResponse struct {
	Session       string            `json:"session"`
	Sources       []graph.NodeID    `json:"sources"`
	NodeCount     int               `json:"nodeCount"`
	EdgeCount     int               `json:"edgeCount"`
	TotalGoodness float64           `json:"totalGoodness"`
	Iterations    int               `json:"iterations"`
	Nodes         []extractNodeJSON `json:"nodes"`
	Edges         []extractEdgeJSON `json:"edges"`
}

func parseCombineMode(s string) (extract.CombineMode, error) {
	switch s {
	case "", "and":
		return extract.CombineAND, nil
	case "or":
		return extract.CombineOR, nil
	case "ksoft", "ksoftand":
		return extract.CombineKSoftAND, nil
	}
	return 0, fmt.Errorf("unknown combine mode %q", s)
}

// extractPlan is a validated, canonicalized extraction request: labels
// resolved, sources sorted and deduplicated (the RWR restart set is
// order-independent, so [2,1] and [1,2] must solve — and cache — as one
// query), options normalized, and the cache key derived from the canonical
// form only.
type extractPlan struct {
	sources []graph.NodeID
	opts    extract.Options
	format  string
	size    float64
	seed    int64
	key     string
}

// planExtract validates req against sess and canonicalizes it into an
// executable plan. The returned status accompanies a non-nil error.
func (s *Server) planExtract(sess *Session, req ExtractRequest) (extractPlan, int, error) {
	var p extractPlan
	if len(req.Sources) == 0 && len(req.Labels) == 0 {
		return p, http.StatusBadRequest, fmt.Errorf("need sources or labels")
	}
	mode, err := parseCombineMode(req.Mode)
	if err != nil {
		return p, http.StatusBadRequest, err
	}
	if req.Budget > s.cfg.MaxBudget {
		return p, http.StatusBadRequest,
			fmt.Errorf("budget %d exceeds server cap %d", req.Budget, s.cfg.MaxBudget)
	}
	p.format = req.Format
	if p.format == "" {
		p.format = "json"
	}
	if p.format != "json" && p.format != "svg" {
		return p, http.StatusBadRequest, fmt.Errorf("format must be json or svg (got %q)", p.format)
	}
	p.size, p.seed = req.Size, req.Seed
	if p.size <= 0 {
		p.size = 800
	}

	// Resolve labels to ids under the read lock, then canonicalize the
	// source set (sorted, deduped) so query order does not defeat caching.
	sources := append([]graph.NodeID(nil), req.Sources...)
	err = sess.withRead(func(eng *core.Engine) error {
		for _, l := range req.Labels {
			hits, err := eng.FindLabel(l)
			if err != nil {
				// Label-index read failure — server-side, not the client.
				return fmt.Errorf("%w: %v", errBackendFault, err)
			}
			if len(hits) == 0 {
				return fmt.Errorf("label %q not found", l)
			}
			sources = append(sources, hits[0].Node)
		}
		return nil
	})
	if err != nil {
		return p, statusOf(err, http.StatusBadRequest), err
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	dedup := sources[:0]
	for i, id := range sources {
		if i == 0 || id != sources[i-1] {
			dedup = append(dedup, id)
		}
	}
	p.sources = dedup

	// Normalize before building the key, so "budget omitted" and "budget
	// 30" share a cache entry, and explicitly out-of-range RWR parameters
	// (restart 1.5, negative epsilon) are rejected up front instead of
	// silently remapped.
	p.opts, err = extract.Options{
		Budget:     req.Budget,
		RWR:        extract.RWROptions{Restart: req.Restart},
		Mode:       mode,
		K:          req.K,
		MaxPathLen: req.MaxPathLen,
	}.Normalize()
	if err != nil {
		return p, http.StatusBadRequest, err
	}
	if p.opts.Mode == extract.CombineKSoftAND {
		// Goodness clamps k to [1, sources]; clamp it here too, so k 0 and
		// 1, or 9 and 2 with two sources, share one cache entry.
		p.opts.K = min(max(p.opts.K, 1), len(p.sources))
	}
	// Size and layout seed only shape the SVG rendering; keep them out of
	// JSON keys so render-only parameters never duplicate JSON entries.
	// Parallel stays out of the key entirely: the solver ignores it.
	keySize, keySeed := p.size, p.seed
	if p.format == "json" {
		keySize, keySeed = 0, 0
	}
	p.key = sess.cacheKey(fmt.Sprintf("extract|src=%v|b=%d|c=%g|m=%d|k=%d|pl=%d|fmt=%s|sz=%g|seed=%d",
		p.sources, p.opts.Budget, p.opts.RWR.Restart, p.opts.Mode, p.opts.K, p.opts.MaxPathLen,
		p.format, keySize, keySeed))
	return p, 0, nil
}

// buildExtract executes a plan against the session's engine, which runs the
// solve on a query view of its store (the resident CSR while the tier holds
// the graph, else paged through the buffer pool), and renders the response
// body. The trace (nil when the caller holds none, or when a different
// request's build was coalesced into) collects the engine's stage
// breakdown and pool pins.
func (s *Server) buildExtract(ctx context.Context, sess *Session, p extractPlan, tr *obs.Trace) ([]byte, string, int, error) {
	return engineBody(sess.guardedRead, http.StatusBadRequest, func(eng *core.Engine) ([]byte, string, error) {
		res, err := eng.ExtractTraced(ctx, tr, p.sources, p.opts)
		if err != nil {
			return nil, "", err
		}
		if p.format == "svg" {
			return []byte(core.RenderExtraction(res, p.size, p.seed)), render.ContentType, nil
		}
		return marshalJSON(extractToJSON(sess.name, res)), jsonContentType, nil
	})
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req ExtractRequest
	if !readJSON(w, r, s.extractBodyBytes(), "extract", &req) {
		return
	}
	p, status, err := s.planExtract(sess, req)
	if s.refuse(w, r, err, status) {
		return
	}
	tr := traceFrom(r.Context())
	s.serveCached(w, r, p.key, func() ([]byte, string, int, error) {
		return s.buildExtract(r.Context(), sess, p, tr)
	})
}

// extractToJSON maps an extraction result back to original-graph ids.
func extractToJSON(session string, res *extract.Result) extractResponse {
	resp := extractResponse{
		Session:       session,
		NodeCount:     res.Subgraph.NumNodes(),
		EdgeCount:     res.Subgraph.NumEdges(),
		TotalGoodness: res.TotalGoodness,
		Iterations:    res.Iterations,
		Sources:       make([]graph.NodeID, 0, len(res.Sources)),
		Nodes:         make([]extractNodeJSON, 0, len(res.Nodes)),
		Edges:         make([]extractEdgeJSON, 0, res.Subgraph.NumEdges()),
	}
	isSource := map[graph.NodeID]bool{}
	for _, l := range res.Sources {
		isSource[l] = true
		resp.Sources = append(resp.Sources, res.Nodes[l])
	}
	for local, orig := range res.Nodes {
		resp.Nodes = append(resp.Nodes, extractNodeJSON{
			ID:       orig,
			Label:    res.Subgraph.Label(graph.NodeID(local)),
			Goodness: res.Goodness[local],
			Source:   isSource[graph.NodeID(local)],
		})
	}
	res.Subgraph.Edges(func(u, v graph.NodeID, wt float64) bool {
		resp.Edges = append(resp.Edges, extractEdgeJSON{A: res.Nodes[u], B: res.Nodes[v], Weight: wt})
		return true
	})
	return resp
}

// --- GET /sessions/{id}/analysis -------------------------------------------

type analysisResponse struct {
	Session           string       `json:"session"`
	Community         gtree.TreeID `json:"community"`
	Nodes             int          `json:"nodes"`
	Edges             int          `json:"edges"`
	DegreeMin         int          `json:"degreeMin"`
	DegreeMax         int          `json:"degreeMax"`
	DegreeMean        float64      `json:"degreeMean"`
	PowerLawExponent  float64      `json:"powerLawExponent"`
	WeakComponents    int          `json:"weakComponents"`
	StrongComponents  int          `json:"strongComponents"`
	EffectiveDiameter int          `json:"effectiveDiameter"`
	MaxHops           int          `json:"maxHops"`
	TopRanked         []rankedJSON `json:"topRanked"`
}

type rankedJSON struct {
	Node     graph.NodeID `json:"node"`
	Label    string       `json:"label,omitempty"`
	PageRank float64      `json:"pageRank"`
}

func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	community := -1
	if v := q.Get("community"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad community %q", v)
			return
		}
		community = n
	}
	var seed int64 = 1
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		seed = n
	}
	key := sess.cacheKey(fmt.Sprintf("analysis|c=%d|seed=%d", community, seed))
	tr := traceFrom(r.Context())
	s.serveCached(w, r, key, func() ([]byte, string, int, error) {
		return engineBody(sess.guardedRead, http.StatusBadRequest, func(eng *core.Engine) ([]byte, string, error) {
			t := eng.Tree()
			id := gtree.TreeID(community)
			if community < 0 {
				// Default to the largest leaf, as the CLI does.
				best := -1
				for _, l := range t.Leaves() {
					if t.Node(l).Size > best {
						best, id = t.Node(l).Size, l
					}
				}
			}
			sp := tr.StartStage("subgraph")
			sub, members, err := eng.LeafSubgraph(id)
			sp.End()
			if err != nil {
				return nil, "", err
			}
			sp = tr.StartStage("report")
			rep := analysis.Report(sub, 0, seed)
			sp.End()
			resp := analysisResponse{
				Session:           sess.name,
				Community:         id,
				Nodes:             rep.Nodes,
				Edges:             rep.Edges,
				DegreeMin:         rep.Degree.Min,
				DegreeMax:         rep.Degree.Max,
				DegreeMean:        rep.Degree.Mean,
				PowerLawExponent:  sanitizeFloat(rep.Degree.PowerLawExponent),
				WeakComponents:    rep.WeakComponents,
				StrongComponents:  rep.StrongComponents,
				EffectiveDiameter: rep.EffectiveDiameter,
				MaxHops:           rep.MaxHops,
				TopRanked:         make([]rankedJSON, 0, len(rep.TopRanked)),
			}
			for _, u := range rep.TopRanked {
				resp.TopRanked = append(resp.TopRanked, rankedJSON{
					Node:     members[u],
					Label:    sub.Label(u),
					PageRank: rep.PageRank[u],
				})
			}
			return marshalJSON(resp), jsonContentType, nil
		})
	})
}

// --- GET /sessions/{id}/analysis/graph --------------------------------------

// graphAnalysisResponse is the wire form of a whole-graph analysis: the
// structure metrics and PageRank of the ENTIRE session graph, computed
// over the engine's shared adjacency (out of core for gtree sessions — the
// paged sweep shows up in the session's /healthz pool counters).
type graphAnalysisResponse struct {
	Session          string       `json:"session"`
	Nodes            int          `json:"nodes"`
	Edges            int          `json:"edges"`
	HalfEdges        int          `json:"halfEdges"`
	SelfLoops        int          `json:"selfLoops"`
	Directed         bool         `json:"directed"`
	DegreeMin        int          `json:"degreeMin"`
	DegreeMax        int          `json:"degreeMax"`
	DegreeMean       float64      `json:"degreeMean"`
	PowerLawExponent float64      `json:"powerLawExponent"`
	WeakComponents   int          `json:"weakComponents"`
	LargestComponent int          `json:"largestComponent"`
	TopRanked        []rankedJSON `json:"topRanked"`
}

func (s *Server) handleGraphAnalysis(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	topK := 10
	if v := r.URL.Query().Get("topk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, http.StatusBadRequest, "bad topk %q (want 1..1000)", v)
			return
		}
		topK = n
	}
	key := sess.cacheKey(fmt.Sprintf("analysis-graph|k=%d", topK))
	tr := traceFrom(r.Context())
	// The request was validated before the build, so a build error is the
	// session (404) or the storage backend — including corrupt CSR-section
	// geometry — which must be a 500, never a 400.
	s.serveCached(w, r, key, func() ([]byte, string, int, error) {
		return engineBody(sess.guardedRead, http.StatusInternalServerError, func(eng *core.Engine) ([]byte, string, error) {
			rep, err := eng.AnalyzeGraphTraced(r.Context(), tr, analysis.PageRankOptions{}, topK)
			if err != nil {
				return nil, "", err
			}
			resp := graphAnalysisResponse{
				Session:          sess.name,
				Nodes:            rep.Nodes,
				Edges:            rep.Edges,
				HalfEdges:        rep.HalfEdges,
				SelfLoops:        rep.SelfLoops,
				Directed:         rep.Directed,
				DegreeMin:        rep.Degree.Min,
				DegreeMax:        rep.Degree.Max,
				DegreeMean:       rep.Degree.Mean,
				PowerLawExponent: sanitizeFloat(rep.Degree.PowerLawExponent),
				WeakComponents:   rep.WeakComponents,
				LargestComponent: rep.LargestComponent,
				TopRanked:        make([]rankedJSON, 0, len(rep.TopRanked)),
			}
			for i, u := range rep.TopRanked {
				resp.TopRanked = append(resp.TopRanked, rankedJSON{
					Node:     u,
					Label:    rep.TopLabels[i],
					PageRank: rep.PageRank[u],
				})
			}
			return marshalJSON(resp), jsonContentType, nil
		})
	})
}

// sanitizeFloat maps NaN/Inf (degenerate power-law fits) to 0 so the
// response stays valid JSON.
func sanitizeFloat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// --- GET /sessions/{id}/labels ---------------------------------------------

type labelHitJSON struct {
	Label string         `json:"label"`
	Node  graph.NodeID   `json:"node"`
	Leaf  gtree.TreeID   `json:"leaf"`
	Path  []gtree.TreeID `json:"path"`
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	exact, prefix := q.Get("q"), q.Get("prefix")
	if exact == "" && prefix == "" {
		writeError(w, http.StatusBadRequest, "need q (exact) or prefix")
		return
	}
	limit := 10
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, http.StatusBadRequest, "bad limit %q (want 1..1000)", v)
			return
		}
		limit = n
	}
	var hits []core.LabelHit
	err := sess.withRead(func(eng *core.Engine) error {
		var err error
		if exact != "" {
			hits, err = eng.FindLabel(exact)
		} else {
			hits, err = eng.SearchLabelPrefix(prefix, limit)
		}
		return err
	})
	if s.refuse(w, r, err, statusOf(err, http.StatusBadRequest)) {
		return
	}
	out := make([]labelHitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, labelHitJSON{Label: h.Label, Node: h.Node, Leaf: h.Leaf, Path: h.Path})
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": sess.name, "hits": out})
}
