package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// BatchExtractRequest is the body of POST /sessions/{id}/extract/batch: a
// list of extraction requests executed through one bounded worker pool
// against the session's shared CSR. A dashboard issuing 50 extractions
// costs one CSR build and saturates the cores instead of serializing 50
// HTTP round trips.
type BatchExtractRequest struct {
	// Requests lists the extractions (1..Config.MaxBatch items). Items use
	// the same schema as POST /sessions/{id}/extract, except the format
	// must be "json" (the batch response embeds each result as JSON).
	Requests []ExtractRequest `json:"requests"`
	// Parallel bounds how many items execute concurrently (default
	// GOMAXPROCS, capped at the item count). Execution knob only: the
	// per-item results are identical for any value.
	Parallel int `json:"parallel"`
}

// BatchExtractItem is the outcome of one batch item, reported in input
// order. Exactly one of Extraction and Error is set.
type BatchExtractItem struct {
	// Index is the item's position in the request list.
	Index int `json:"index"`
	// Status is the per-item HTTP status the same single request would
	// have received (200, 400, ...).
	Status int `json:"status"`
	// Cache reports how the item was served: "hit" (result cache), "miss"
	// (this item ran the solve) or "coalesced" (an identical build was
	// already in flight — including a duplicate item in the same batch —
	// and this item shares its result).
	Cache string `json:"cache,omitempty"`
	// TraceID identifies the item's stage trace ("<requestID>.<index>"):
	// per-item engine errors carry it, and the item's stage timings land in
	// the /metrics histograms under it.
	TraceID string `json:"traceId,omitempty"`
	// Extraction is the extractResponse JSON for successful items.
	Extraction json.RawMessage `json:"extraction,omitempty"`
	// Error describes a failed item.
	Error string `json:"error,omitempty"`
}

// BatchExtractResponse is the body of a batch extraction reply. The HTTP
// status is 200 whenever the batch itself was well-formed; per-item
// failures are reported inline so one bad item cannot void its siblings.
type BatchExtractResponse struct {
	Session   string             `json:"session"`
	Count     int                `json:"count"`
	Succeeded int                `json:"succeeded"`
	Failed    int                `json:"failed"`
	Results   []BatchExtractItem `json:"results"`
}

func (s *Server) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req BatchExtractRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body: %s", err)
		return
	}
	n := len(req.Requests)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	if n > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds server cap %d", n, s.cfg.MaxBatch)
		return
	}
	workers := req.Parallel
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Each item gets a child trace derived from the request ID, so one
	// batch's items correlate in logs and metrics yet keep distinct stage
	// records (the parent request trace stays stage-free; the middleware
	// would otherwise double-count item stages at flush time).
	parentID := ""
	if tr := traceFrom(r.Context()); tr != nil {
		parentID = tr.ID
	}

	resp := BatchExtractResponse{
		Session: sess.name,
		Count:   n,
		Results: make([]BatchExtractItem, n),
	}
	// The request context doubles as the batch's cancellation: when the
	// client disconnects (or the request deadline fires), the dispatch loop
	// stops feeding workers and every in-flight item's solve aborts at its
	// next cooperative checkpoint — a dead dashboard doesn't keep fifty
	// extractions grinding the buffer pool.
	ctx := r.Context()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				resp.Results[idx] = s.safeBatchItem(ctx, sess, req.Requests[idx], idx, parentID)
			}
		}()
	}
	dispatched := 0
dispatch:
	for idx := range req.Requests {
		select {
		case jobs <- idx:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	// Items never dispatched answer as the batch does: 499 when the client
	// went away, 503 when the request deadline passed. Only a disconnect
	// counts as a cancelled query.
	for idx := dispatched; idx < n; idx++ {
		resp.Results[idx] = BatchExtractItem{
			Index:  idx,
			Status: statusOf(ctx.Err(), statusClientClosedRequest),
			Error:  "batch cancelled before dispatch: " + ctx.Err().Error(),
		}
	}

	for i := range resp.Results {
		if resp.Results[i].Status == statusClientClosedRequest {
			s.metrics.cancels.Inc()
		}
		if resp.Results[i].Error == "" {
			resp.Succeeded++
			s.metrics.batchOK.Inc()
		} else {
			resp.Failed++
			s.metrics.batchErr.Inc()
		}
	}
	if s.refuse(w, r, nil, 0) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// safeBatchItem contains a panicking build to its own item. Batch items
// run on pool goroutines, outside net/http's per-request recovery — an
// unrecovered panic there would kill the whole server, not one request.
func (s *Server) safeBatchItem(ctx context.Context, sess *Session, req ExtractRequest, idx int, parentID string) (item BatchExtractItem) {
	defer func() {
		if r := recover(); r != nil {
			item = BatchExtractItem{
				Index:  idx,
				Status: http.StatusInternalServerError,
				Error:  fmt.Sprintf("internal error: %v", r),
			}
		}
	}()
	return s.runBatchItem(ctx, sess, req, idx, parentID)
}

// runBatchItem plans and executes one batch item through the shared result
// cache and singleflight, so items identical to cached or in-flight queries
// (even duplicates within the same batch) cost nothing extra.
func (s *Server) runBatchItem(ctx context.Context, sess *Session, req ExtractRequest, idx int, parentID string) BatchExtractItem {
	item := BatchExtractItem{Index: idx}
	var tr *obs.Trace
	if parentID != "" {
		tr = obs.NewTrace(fmt.Sprintf("%s.%d", parentID, idx))
		item.TraceID = tr.ID
		defer s.metrics.observeTrace(tr)
	}
	if req.Format != "" && req.Format != "json" {
		item.Status = http.StatusBadRequest
		item.Error = fmt.Sprintf("batch items must use format \"json\" (got %q)", req.Format)
		return item
	}
	p, status, err := s.planExtract(ctx, sess, req)
	if err != nil {
		item.Status, item.Error = status, err.Error()
		return item
	}
	body, _, state, errStatus, err := s.cachedResult(ctx, p.key, func() ([]byte, string, int, error) {
		return s.buildExtract(ctx, sess, p, tr)
	})
	tr.Note("cache", state)
	if err != nil {
		item.Status, item.Error = errStatus, err.Error()
		return item
	}
	item.Status, item.Cache, item.Extraction = http.StatusOK, state, json.RawMessage(body)
	return item
}
