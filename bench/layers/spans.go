package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the probe around the
// call: the product's own tracing is not involved.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root
	Req    int              `json:"req"`    // request index; -1 for warm-up
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the recorder's origin
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the probe ends. It is used from
// one goroutine: the replays are sequential, and stage hooks fire on the
// calling goroutine.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(parent, req int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name,
		Start: time.Since(r.origin).Nanoseconds(), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = time.Since(r.origin).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// add records a span whose start and duration something else measured
// (extract.Options.StageHook reports stages after they finish).
func (r *recorder) add(parent, req int, name string, start time.Time, d time.Duration) {
	st := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name,
		Start: st, End: st + d.Nanoseconds()})
}

func (r *recorder) count(id int, name string, v int64) {
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += v
}

// selfTimes returns, per span, its duration minus the part of its interval
// its children cover (overlapping children are merged first).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
