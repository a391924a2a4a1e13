package render

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
)

// Palette used for community levels (cycled).
var levelFill = []string{"#dbeafe", "#dcfce7", "#fef9c3", "#fee2e2", "#ede9fe", "#cffafe"}

// SceneSVG renders a Tomahawk scene with its layout to an SVG document.
// Community discs are filled by level; connectivity edges connect disc
// centers with width ~ log2(count+1).
func SceneSVG(t *gtree.Tree, s *gtree.Scene, l *layout.SceneLayout, size float64) string {
	svg := NewSVG(size, size)
	ids := s.Nodes()
	svg.grow(1 + 2*len(ids) + len(s.Edges))
	// Appended, not formatted: Sprintf's boxing and Itoa both allocate
	// for some values and not others, and the document's allocation
	// count must not depend on the scene.
	var hdr [80]byte
	h := append(hdr[:0], "gmine scene focus="...)
	h = strconv.AppendInt(h, int64(s.Focus), 10)
	h = append(h, " communities="...)
	h = strconv.AppendInt(h, int64(s.Size()), 10)
	h = append(h, " edges="...)
	h = strconv.AppendInt(h, int64(len(s.Edges)), 10)
	svg.Comment(string(h))
	// Draw enclosing discs first (ancestors outermost), then the rest by
	// level so nesting stays visible.
	sort.SliceStable(ids, func(i, j int) bool { return t.Node(ids[i]).Level < t.Node(ids[j]).Level })
	scale := size / (2 * l.Canvas.R)
	for _, id := range ids {
		c, ok := l.Circles[id]
		if !ok {
			continue
		}
		fill := levelFill[t.Node(id).Level%len(levelFill)]
		stroke := "#334155"
		width := 1.0
		if id == s.Focus {
			stroke = "#dc2626"
			width = 2.5
		}
		svg.Circle(c.C.X*scale, c.C.Y*scale, c.R*scale, fill, stroke, width)
	}
	for _, e := range s.Edges {
		ca, okA := l.Circles[e.A]
		cb, okB := l.Circles[e.B]
		if !okA || !okB {
			continue
		}
		w := math.Log2(float64(e.Count)+1) + 0.5
		svg.Line(ca.C.X*scale, ca.C.Y*scale, cb.C.X*scale, cb.C.Y*scale, "#64748b", w, 0.7)
	}
	// Community labels: id and size.
	for _, id := range ids {
		c, ok := l.Circles[id]
		if !ok {
			continue
		}
		b := svg.openText(c.C.X*scale, c.C.Y*scale-c.R*scale-2, 10, "#0f172a")
		svg.body = append(appendLabel(b, id, t.Node(id).Size), "</text>\n"...)
	}
	return svg.String()
}

// appendLabel appends a community's label, "s%03d (%d)" of its
// (non-negative) id and its size, without formatting a string per label.
// It needs no escaping.
func appendLabel(b []byte, id gtree.TreeID, size int) []byte {
	b = append(b, 's')
	switch {
	case id < 10:
		b = append(b, "00"...)
	case id < 100:
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(size), 10)
	return append(b, ')')
}

// SubgraphSVG renders a leaf subgraph (or an extracted connection
// subgraph) with force-directed positions. highlight marks node ids (local
// to sub) to draw emphasized; labels are drawn when the graph is labeled
// and small enough to stay readable.
func SubgraphSVG(sub *graph.Graph, pos []layout.Point, highlight []graph.NodeID, size float64) string {
	svg := NewSVG(size, size)
	svg.Comment(fmt.Sprintf("gmine subgraph n=%d m=%d", sub.NumNodes(), sub.NumEdges()))
	var maxR float64
	for _, p := range pos {
		if d := math.Sqrt(p.X*p.X + p.Y*p.Y); d > maxR {
			maxR = d
		}
	}
	if maxR == 0 {
		maxR = 1
	}
	scale := (size/2 - 12) / maxR
	sub.Edges(func(u, v graph.NodeID, w float64) bool {
		if u == v {
			return true
		}
		svg.Line(pos[u].X*scale, pos[u].Y*scale, pos[v].X*scale, pos[v].Y*scale,
			"#94a3b8", math.Min(0.5+math.Log2(w+1)/2, 3), 0.6)
		return true
	})
	hl := map[graph.NodeID]bool{}
	for _, h := range highlight {
		hl[h] = true
	}
	for u := 0; u < sub.NumNodes(); u++ {
		p := pos[u]
		fill, r := "#3b82f6", 3.0
		if hl[graph.NodeID(u)] {
			fill, r = "#dc2626", 5.0
		}
		svg.Circle(p.X*scale, p.Y*scale, r, fill, "#1e293b", 0.5)
	}
	if sub.Labeled() && sub.NumNodes() <= 60 {
		for u := 0; u < sub.NumNodes(); u++ {
			if l := sub.Label(graph.NodeID(u)); l != "" {
				svg.Text(pos[u].X*scale+5, pos[u].Y*scale-5, 8, "#0f172a", l)
			}
		}
	}
	return svg.String()
}
