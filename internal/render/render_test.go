package render

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/partition"
)

func parseXML(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid XML: %v\n%s", err, doc)
		}
	}
}

func TestSVGBuilderWellFormed(t *testing.T) {
	s := NewSVG(200, 100)
	s.Circle(0, 0, 10, "red", "black", 1)
	s.Line(-5, -5, 5, 5, "blue", 2, 0.5)
	s.Text(0, 0, 12, "#000", `labels with <angle> & "quotes"`)
	s.Comment("a comment -- with dashes")
	doc := s.String()
	parseXML(t, doc)
	if !strings.Contains(doc, "viewBox=\"-100.00 -50.00 200.00 100.00\"") {
		t.Fatalf("viewBox wrong:\n%s", doc)
	}
	if s.ElementCount() != 4 {
		t.Fatalf("elements=%d want 4", s.ElementCount())
	}
}

func TestSVGEscaping(t *testing.T) {
	s := NewSVG(10, 10)
	s.Text(0, 0, 10, "#000", `<script>&"`)
	doc := s.String()
	if strings.Contains(doc, "<script>") {
		t.Fatal("unescaped text element")
	}
	parseXML(t, doc)
}

func buildScene(t *testing.T) (*gtree.Tree, *gtree.Scene) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	n := 9 * 16
	g := graph.NewWithNodes(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := 0.03
			if u/16 == v/16 {
				p = 0.4
			}
			if rng.Float64() < p {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
	}
	tr, err := gtree.Build(g, gtree.BuildOptions{K: 3, Levels: 3, Partition: partition.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	sc := tr.Tomahawk(tr.Node(tr.Root()).Children[0], gtree.TomahawkOptions{Grandchildren: true})
	return tr, sc
}

func TestSceneSVG(t *testing.T) {
	tr, sc := buildScene(t)
	l := layout.LayoutScene(tr, sc, 100)
	doc := SceneSVG(tr, sc, l, 800)
	parseXML(t, doc)
	// One circle per displayed community.
	if got := strings.Count(doc, "<circle"); got != sc.Size() {
		t.Fatalf("%d circles for %d communities", got, sc.Size())
	}
	// One line per scene edge.
	if got := strings.Count(doc, "<line"); got != len(sc.Edges) {
		t.Fatalf("%d lines for %d edges", got, len(sc.Edges))
	}
	// Focus highlighted.
	if !strings.Contains(doc, "#dc2626") {
		t.Fatal("focus stroke missing")
	}
}

func TestSubgraphSVG(t *testing.T) {
	g := graph.NewWithNodes(5, false)
	g.SetLabel(0, "Jiawei Han")
	g.SetLabel(1, "Ke Wang")
	g.AddEdge(0, 1, 12)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	pos := layout.ForceLayout(g, layout.Circle{R: 50}, layout.ForceOptions{Iterations: 50, Seed: 1})
	doc := SubgraphSVG(g, pos, []graph.NodeID{0}, 600)
	parseXML(t, doc)
	if got := strings.Count(doc, "<circle"); got != 5 {
		t.Fatalf("%d circles want 5", got)
	}
	if got := strings.Count(doc, "<line"); got != 4 {
		t.Fatalf("%d lines want 4", got)
	}
	if !strings.Contains(doc, "Jiawei Han") {
		t.Fatal("labels missing")
	}
	if !strings.Contains(doc, "#dc2626") {
		t.Fatal("highlight missing")
	}
}

func TestSubgraphSVGLargeSkipsLabels(t *testing.T) {
	n := 100
	g := graph.NewWithNodes(n, false)
	for i := 0; i < n; i++ {
		g.SetLabel(graph.NodeID(i), "x")
		if i > 0 {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
		}
	}
	pos := layout.ForceLayout(g, layout.Circle{R: 50}, layout.ForceOptions{Iterations: 10, Seed: 1})
	doc := SubgraphSVG(g, pos, nil, 600)
	parseXML(t, doc)
	if strings.Contains(doc, "<text") {
		t.Fatal("labels drawn on a large subgraph")
	}
}

func TestSubgraphSVGSelfLoopSkipped(t *testing.T) {
	g := graph.NewWithNodes(2, false)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	pos := []layout.Point{{X: 1}, {X: -1}}
	doc := SubgraphSVG(g, pos, nil, 100)
	parseXML(t, doc)
	if got := strings.Count(doc, "<line"); got != 1 {
		t.Fatalf("%d lines want 1 (self-loop skipped)", got)
	}
}

// fmtSVG is the fmt-based builder SVG replaced: every element formatted
// with Sprintf and %.2f, escaped by a Replacer, and joined at the end. Its comments drop "--" until none is left, which is what
// SVG.Comment must produce in one pass. It referees the append-based
// writer byte for byte.
type fmtSVG struct {
	w, h  float64
	elems []string
}

var fmtEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func fmtEsc(s string) string { return fmtEscaper.Replace(s) }

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

func (s *fmtSVG) Circle(cx, cy, r float64, fill, stroke string, strokeWidth float64) {
	s.elems = append(s.elems, fmt.Sprintf(
		`<circle cx="%s" cy="%s" r="%s" fill="%s" stroke="%s" stroke-width="%s"/>`,
		fmtF(cx), fmtF(cy), fmtF(r), fmtEsc(fill), fmtEsc(stroke), fmtF(strokeWidth)))
}

func (s *fmtSVG) Line(x1, y1, x2, y2 float64, stroke string, width, opacity float64) {
	s.elems = append(s.elems, fmt.Sprintf(
		`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s" stroke-opacity="%s"/>`,
		fmtF(x1), fmtF(y1), fmtF(x2), fmtF(y2), fmtEsc(stroke), fmtF(width), fmtF(opacity)))
}

func (s *fmtSVG) Text(x, y float64, size float64, fill, text string) {
	s.elems = append(s.elems, fmt.Sprintf(
		`<text x="%s" y="%s" font-size="%s" fill="%s" font-family="sans-serif">%s</text>`,
		fmtF(x), fmtF(y), fmtF(size), fmtEsc(fill), fmtEsc(text)))
}

func (s *fmtSVG) Comment(c string) {
	for strings.Contains(c, "--") {
		c = strings.ReplaceAll(c, "--", "- -")
	}
	s.elems = append(s.elems, "<!-- "+c+" -->")
}

func (s *fmtSVG) ElementCount() int { return len(s.elems) }

func (s *fmtSVG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<?xml version="1.0" encoding="UTF-8"?>`+"\n")
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" viewBox="%s %s %s %s">`+"\n",
		fmtF(s.w), fmtF(s.h), fmtF(-s.w/2), fmtF(-s.h/2), fmtF(s.w), fmtF(s.h))
	for _, e := range s.elems {
		b.WriteString("  " + e + "\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// drawer is the drawing half of both builders.
type drawer interface {
	Circle(cx, cy, r float64, fill, stroke string, strokeWidth float64)
	Line(x1, y1, x2, y2 float64, stroke string, width, opacity float64)
	Text(x, y float64, size float64, fill, text string)
	Comment(c string)
}

// randCoord draws a coordinate that stresses %.2f: NaN, ±Inf, ±0, values
// an ulp either side of a ...5 at the third decimal, and magnitudes from
// 1e-4 up to 1e21.
func randCoord(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			0.005, -0.005, 0.125, 1e21, -1e21, 0.0049999, -0.0049999}[rng.Intn(12)]
	case 1, 2:
		// k/100 + 0.005 is a rounding boundary; step one ulp off it.
		v := float64(rng.Intn(200000)-100000)/100 + 0.005
		switch rng.Intn(3) {
		case 0:
			v = math.Nextafter(v, math.Inf(1))
		case 1:
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	case 3:
		return math.Pow(10, float64(rng.Intn(26)-4)) * (rng.Float64()*2 - 1)
	default:
		return (rng.Float64()*2 - 1) * 500
	}
}

// randText draws a string from pieces that need escaping, dash runs,
// non-ASCII and the empty string.
func randText(rng *rand.Rand) string {
	pieces := []string{"", "&", "<", ">", `"`, "'", "-", "--", "---", "a", "Jiawei Han", "é", "日本",
		"#dc2626", "&amp;", " ", "x<y>&\"z"}
	var b strings.Builder
	for k := rng.Intn(5); k > 0; k-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func drawRandom(rng *rand.Rand, d drawer) {
	for k := rng.Intn(9); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			d.Circle(randCoord(rng), randCoord(rng), randCoord(rng), randText(rng), randText(rng), randCoord(rng))
		case 1:
			d.Line(randCoord(rng), randCoord(rng), randCoord(rng), randCoord(rng), randText(rng), randCoord(rng), randCoord(rng))
		case 2:
			d.Text(randCoord(rng), randCoord(rng), randCoord(rng), randText(rng), randText(rng))
		default:
			d.Comment(randText(rng))
		}
	}
}

func TestSVGMatchesFmtReference(t *testing.T) {
	for i := 0; i < 20000; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		w, h, seed := randCoord(rng), randCoord(rng), rng.Int63()
		got, want := NewSVG(w, h), &fmtSVG{w: w, h: h}
		drawRandom(rand.New(rand.NewSource(seed)), got)
		drawRandom(rand.New(rand.NewSource(seed)), want)
		if got.String() != want.String() || got.ElementCount() != want.ElementCount() {
			t.Fatalf("document %d differs (%d vs %d elements)\n got %q\nwant %q",
				i, got.ElementCount(), want.ElementCount(), got.String(), want.String())
		}
	}
}

func TestSVGCommentDashesParse(t *testing.T) {
	var texts []string
	for n := 1; n <= 6; n++ {
		run := strings.Repeat("-", n)
		texts = append(texts, run, "a"+run+"b", "a"+run, run+"b", "x "+run+" y")
	}
	for _, c := range texts {
		s := NewSVG(10, 10)
		s.Comment(c)
		doc := s.String()
		parseXML(t, doc)
		dec := xml.NewDecoder(strings.NewReader(doc))
		for {
			tok, err := dec.Token()
			if err != nil {
				t.Fatalf("comment %q: no comment token (%v)", c, err)
			}
			if com, ok := tok.(xml.Comment); ok {
				body := string(com)
				if strings.Contains(body, "--") || strings.HasSuffix(body, "-") {
					t.Fatalf("comment %q emitted as %q", c, body)
				}
				if strings.ReplaceAll(body, " ", "") != strings.ReplaceAll(c, " ", "") {
					t.Fatalf("comment %q lost characters: %q", c, body)
				}
				break
			}
		}
	}
}

// fmtSceneSVG is SceneSVG as it was written over the fmt-based builder.
func fmtSceneSVG(t *gtree.Tree, s *gtree.Scene, l *layout.SceneLayout, size float64) string {
	svg := &fmtSVG{w: size, h: size}
	svg.Comment(fmt.Sprintf("gmine scene focus=%d communities=%d edges=%d", s.Focus, s.Size(), len(s.Edges)))
	ids := s.Nodes()
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
	for _, id := range ids {
		c, ok := l.Circles[id]
		if !ok {
			continue
		}
		svg.Text(c.C.X*scale, c.C.Y*scale-c.R*scale-2, 10, "#0f172a",
			fmt.Sprintf("s%03d (%d)", id, t.Node(id).Size))
	}
	return svg.String()
}

type sceneCase struct {
	scene  *gtree.Scene
	layout *layout.SceneLayout
}

// everyScene lays out the scene of every community of tr, with and
// without grandchildren.
func everyScene(tr *gtree.Tree) []sceneCase {
	var out []sceneCase
	for id := 0; id < tr.NumCommunities(); id++ {
		for _, gc := range []bool{false, true} {
			sc := tr.Tomahawk(gtree.TreeID(id), gtree.TomahawkOptions{Grandchildren: gc})
			out = append(out, sceneCase{sc, layout.LayoutScene(tr, sc, 100)})
		}
	}
	return out
}

func TestSceneSVGMatchesFmtReference(t *testing.T) {
	tr, _ := buildScene(t)
	for _, c := range everyScene(tr) {
		for _, size := range []float64{800, 333.3} {
			if got, want := SceneSVG(tr, c.scene, c.layout, size), fmtSceneSVG(tr, c.scene, c.layout, size); got != want {
				t.Fatalf("scene focus=%d size=%v differs\n got %s\nwant %s", c.scene.Focus, size, got, want)
			}
		}
	}
	for _, id := range []gtree.TreeID{0, 7, 42, 99, 100, 1234} {
		if got, want := string(appendLabel(nil, id, 56)), fmt.Sprintf("s%03d (%d)", id, 56); got != want {
			t.Fatalf("label %q want %q", got, want)
		}
	}
}

func TestConcurrentRenderIdentical(t *testing.T) {
	tr, _ := buildScene(t)
	scenes := everyScene(tr)
	want := make([]string, len(scenes))
	for i, c := range scenes {
		want[i] = SceneSVG(tr, c.scene, c.layout, 900)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range scenes {
				i := (k + w*len(scenes)/6) % len(scenes)
				if got := SceneSVG(tr, scenes[i].scene, scenes[i].layout, 900); got != want[i] {
					t.Errorf("goroutine %d: scene %d differs from the serial render", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEscAndSceneSVGAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { esc("Jiawei Han #0f172a") }); a != 0 {
		t.Fatalf("esc of a string needing no escaping: %v allocs, want 0", a)
	}
	tr, _ := buildScene(t)
	small := tr.Tomahawk(tr.Root(), gtree.TomahawkOptions{})
	large := tr.Tomahawk(tr.Node(tr.Root()).Children[0], gtree.TomahawkOptions{Grandchildren: true})
	ls, ll := layout.LayoutScene(tr, small, 100), layout.LayoutScene(tr, large, 100)
	if small.Size()+len(small.Edges) >= large.Size()+len(large.Edges) {
		t.Fatalf("fixture: small scene (%d communities) not smaller than large (%d)", small.Size(), large.Size())
	}
	as := testing.AllocsPerRun(20, func() { SceneSVG(tr, small, ls, 900) })
	al := testing.AllocsPerRun(20, func() { SceneSVG(tr, large, ll, 900) })
	if al != as {
		t.Fatalf("SceneSVG allocs: %v for %d communities + %d edges, %v for %d + %d; want equal",
			as, small.Size(), len(small.Edges), al, large.Size(), len(large.Edges))
	}
}
