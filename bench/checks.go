package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/bench/wire"
)

// checkResponse validates one 200 body against what the generator knows
// must hold for that request. A failed check is a failed operation: the
// numbers only count if the answers are right.
func checkResponse(req wire.Request, g *graphFacts, body []byte) error {
	switch req.Kind {
	case wire.KindScene:
		return checkScene(req.Want, body)
	case wire.KindSceneSVG:
		if !bytes.Contains(body, []byte("<svg")) || !bytes.HasSuffix(bytes.TrimSpace(body), []byte("</svg>")) {
			return fmt.Errorf("scene svg: not an <svg> document (%d bytes)", len(body))
		}
		return nil
	case wire.KindTree:
		return checkTree(req.Want, body)
	case wire.KindLabelExact, wire.KindLabelPrefix:
		return checkLabels(req, body)
	case wire.KindLeafAnalysis:
		return checkLeafAnalysis(req.Want, body)
	case wire.KindExtract:
		return checkExtract(req.Want, g, body)
	case wire.KindGraphAnalysis:
		return checkGraphAnalysis(req.Want, g, body)
	}
	return fmt.Errorf("no check for kind %q", req.Kind)
}

// unwrapTrace returns the result inside a ?trace=1 envelope.
func unwrapTrace(body []byte) ([]byte, error) {
	var env struct {
		Trace  json.RawMessage `json:"trace"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("trace envelope: %w", err)
	}
	if len(env.Trace) == 0 || len(env.Result) == 0 {
		return nil, fmt.Errorf("trace envelope: missing trace or result")
	}
	return env.Result, nil
}

func checkScene(want wire.Want, body []byte) error {
	var sc struct {
		Focus     *int  `json:"focus"`
		FocusSize int   `json:"focusSize"`
		Ancestors []int `json:"ancestors"`
		Siblings  []int `json:"siblings"`
		Children  []int `json:"children"`
		Edges     []struct {
			A, B  int
			Count int
		} `json:"edges"`
	}
	if err := json.Unmarshal(body, &sc); err != nil {
		return fmt.Errorf("scene: %w", err)
	}
	if sc.Focus == nil || *sc.Focus != want.Community {
		return fmt.Errorf("scene: focus %v, want %d", sc.Focus, want.Community)
	}
	if len(sc.Children) != want.Children || sc.FocusSize != want.Size {
		return fmt.Errorf("scene %d: %d children size %d, want %d children size %d",
			want.Community, len(sc.Children), sc.FocusSize, want.Children, want.Size)
	}
	shown := map[int]bool{*sc.Focus: true}
	for _, ids := range [][]int{sc.Ancestors, sc.Siblings, sc.Children} {
		for _, id := range ids {
			shown[id] = true
		}
	}
	for _, e := range sc.Edges {
		if !shown[e.A] || !shown[e.B] || e.Count <= 0 {
			return fmt.Errorf("scene %d: edge %d-%d (count %d) not between shown communities", want.Community, e.A, e.B, e.Count)
		}
	}
	return nil
}

func checkTree(want wire.Want, body []byte) error {
	var tr struct {
		Communities int         `json:"communities"`
		Listing     []community `json:"listing"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	if len(tr.Listing) != want.Listed {
		return fmt.Errorf("tree level %d: %d communities listed, want %d", want.Level, len(tr.Listing), want.Listed)
	}
	for _, c := range tr.Listing {
		if c.Level != want.Level {
			return fmt.Errorf("tree level %d: listed community %d is on level %d", want.Level, c.ID, c.Level)
		}
	}
	return nil
}

type labelHits struct {
	Hits []struct {
		Label string `json:"label"`
		Node  int32  `json:"node"`
		Leaf  int    `json:"leaf"`
		Path  []int  `json:"path"`
	} `json:"hits"`
}

func checkLabels(req wire.Request, body []byte) error {
	var lh labelHits
	if err := json.Unmarshal(body, &lh); err != nil {
		return fmt.Errorf("labels: %w", err)
	}
	// Both label kinds are built from a label that exists, so a hit is
	// guaranteed.
	if len(lh.Hits) == 0 {
		return fmt.Errorf("labels %q: no hits", req.Want.Label)
	}
	found := false
	for _, h := range lh.Hits {
		if len(h.Path) == 0 || h.Path[len(h.Path)-1] != h.Leaf {
			return fmt.Errorf("labels %q: hit %d has path %v not ending at leaf %d", req.Want.Label, h.Node, h.Path, h.Leaf)
		}
		if req.Kind == wire.KindLabelPrefix {
			if !strings.HasPrefix(h.Label, req.Want.Label) {
				return fmt.Errorf("labels prefix %q: hit %q", req.Want.Label, h.Label)
			}
			continue
		}
		if h.Label != req.Want.Label {
			return fmt.Errorf("labels q=%q: hit %q", req.Want.Label, h.Label)
		}
		found = found || h.Node == req.Want.Node
	}
	if req.Kind == wire.KindLabelExact && !found {
		return fmt.Errorf("labels q=%q: node %d not among %d hits", req.Want.Label, req.Want.Node, len(lh.Hits))
	}
	return nil
}

func checkLeafAnalysis(want wire.Want, body []byte) error {
	var rep struct {
		Community *int `json:"community"`
		Nodes     int  `json:"nodes"`
		TopRanked []struct {
			PageRank float64 `json:"pageRank"`
		} `json:"topRanked"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("leaf analysis: %w", err)
	}
	if rep.Community == nil || *rep.Community != want.Community || rep.Nodes != want.Size {
		return fmt.Errorf("leaf analysis: community %v with %d nodes, want %d with %d",
			rep.Community, rep.Nodes, want.Community, want.Size)
	}
	if len(rep.TopRanked) == 0 {
		return fmt.Errorf("leaf analysis %d: no ranked nodes", want.Community)
	}
	return nil
}

func checkExtract(want wire.Want, g *graphFacts, body []byte) error {
	var res struct {
		Sources   []int32 `json:"sources"`
		NodeCount int     `json:"nodeCount"`
		EdgeCount int     `json:"edgeCount"`
		Nodes     []struct {
			ID     int32 `json:"id"`
			Source bool  `json:"source"`
		} `json:"nodes"`
		Edges []struct {
			A int32 `json:"a"`
			B int32 `json:"b"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	if res.NodeCount != len(res.Nodes) || res.EdgeCount != len(res.Edges) {
		return fmt.Errorf("extract %v: counts %d/%d disagree with %d nodes / %d edges",
			want.Sources, res.NodeCount, res.EdgeCount, len(res.Nodes), len(res.Edges))
	}
	if res.NodeCount > want.Budget || res.NodeCount < len(want.Sources) {
		return fmt.Errorf("extract %v: %d nodes outside [%d sources, budget %d]",
			want.Sources, res.NodeCount, len(want.Sources), want.Budget)
	}
	in := make(map[int32]bool, len(res.Nodes))
	for _, n := range res.Nodes {
		if n.ID < 0 || int(n.ID) >= g.n || in[n.ID] {
			return fmt.Errorf("extract %v: node id %d out of range or repeated", want.Sources, n.ID)
		}
		in[n.ID] = true
	}
	for _, s := range want.Sources {
		if !in[s] {
			return fmt.Errorf("extract %v: source %d missing from the subgraph", want.Sources, s)
		}
	}
	if len(res.Sources) != len(want.Sources) {
		return fmt.Errorf("extract %v: response lists sources %v", want.Sources, res.Sources)
	}
	for _, e := range res.Edges {
		if !in[e.A] || !in[e.B] {
			return fmt.Errorf("extract %v: edge %d-%d leaves the node set", want.Sources, e.A, e.B)
		}
	}
	return nil
}

func checkGraphAnalysis(want wire.Want, g *graphFacts, body []byte) error {
	var rep struct {
		Nodes     int `json:"nodes"`
		Edges     int `json:"edges"`
		HalfEdges int `json:"halfEdges"`
		TopRanked []struct {
			Node int32 `json:"node"`
		} `json:"topRanked"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("graph analysis: %w", err)
	}
	if rep.Nodes != g.n || rep.Edges != g.edges || rep.HalfEdges != 2*g.edges {
		return fmt.Errorf("graph analysis: %d nodes / %d edges / %d half-edges, fixture has %d / %d / %d",
			rep.Nodes, rep.Edges, rep.HalfEdges, g.n, g.edges, 2*g.edges)
	}
	if len(rep.TopRanked) != min(want.TopK, g.n) {
		return fmt.Errorf("graph analysis topk=%d: %d ranked nodes", want.TopK, len(rep.TopRanked))
	}
	return nil
}
