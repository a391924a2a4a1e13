// Package render turns GMine scenes and subgraph layouts into SVG
// documents — the headless stand-in for the paper's interactive canvas.
// Community nodes are drawn as circles, connectivity edges as lines whose
// width grows with the logarithm of the crossing-edge count, leaf
// subgraphs as dots and segments, with optional highlights and labels.
package render

import (
	"slices"
	"strconv"
	"strings"
)

// ContentType is the MIME type of the documents this package produces;
// HTTP handlers serving scenes use it as the Content-Type header.
const ContentType = "image/svg+xml"

// SVG is a minimal SVG document builder (stdlib only). Elements are
// appended to one byte buffer as they are added, each on its own
// indented line.
type SVG struct {
	w, h  float64
	body  []byte
	count int
}

// NewSVG creates a drawing canvas of the given size; the viewBox is
// centered at the origin, matching the layout package's coordinates.
func NewSVG(w, h float64) *SVG {
	return &SVG{w: w, h: h}
}

// escaper is built once and shared by every document: a strings.Replacer
// is safe for concurrent use, and building one costs far more than the
// short attribute values it escapes.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func esc(s string) string { return escaper.Replace(s) }

// num appends v formatted as %.2f would format it (NaN, ±Inf and -0
// included).
func num(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', 2, 64) }

// key appends ` name="`, the start of an attribute.
func key(b []byte, name string) []byte { return append(append(append(b, ' '), name...), `="`...) }

// attr appends ` name="v"` with v formatted by num.
func attr(b []byte, name string, v float64) []byte { return append(num(key(b, name), v), '"') }

// sattr appends ` name="s"` with s escaped.
func sattr(b []byte, name, s string) []byte { return append(append(key(b, name), esc(s)...), '"') }

// grow reserves room for n more elements of up to 128 bytes each (a
// scene element with coordinates below 1e4), so a caller that knows its
// element count up front fills the body without regrowing it.
func (s *SVG) grow(n int) { s.body = slices.Grow(s.body, 128*n) }

// open counts a new element and returns the body with its line started
// by "<" and tag; the caller appends the rest and stores the body back.
func (s *SVG) open(tag string) []byte {
	s.count++
	return append(append(s.body, "  <"...), tag...)
}

// Circle adds a circle element.
func (s *SVG) Circle(cx, cy, r float64, fill, stroke string, strokeWidth float64) {
	b := attr(s.open("circle"), "cx", cx)
	b = attr(b, "cy", cy)
	b = attr(b, "r", r)
	b = sattr(b, "fill", fill)
	b = sattr(b, "stroke", stroke)
	b = attr(b, "stroke-width", strokeWidth)
	s.body = append(b, "/>\n"...)
}

// Line adds a line element.
func (s *SVG) Line(x1, y1, x2, y2 float64, stroke string, width, opacity float64) {
	b := attr(s.open("line"), "x1", x1)
	b = attr(b, "y1", y1)
	b = attr(b, "x2", x2)
	b = attr(b, "y2", y2)
	b = sattr(b, "stroke", stroke)
	b = attr(b, "stroke-width", width)
	b = attr(b, "stroke-opacity", opacity)
	s.body = append(b, "/>\n"...)
}

// Text adds a text element.
func (s *SVG) Text(x, y float64, size float64, fill, text string) {
	s.body = append(append(s.openText(x, y, size, fill), esc(text)...), "</text>\n"...)
}

// openText opens a text element up to its content, like open.
func (s *SVG) openText(x, y float64, size float64, fill string) []byte {
	b := attr(s.open("text"), "x", x)
	b = attr(b, "y", y)
	b = attr(b, "font-size", size)
	b = sattr(b, "fill", fill)
	return append(b, ` font-family="sans-serif">`...)
}

// Comment adds an XML comment (used to tag scenes for tests/tools). XML
// forbids "--" inside a comment, so a space goes between every two
// adjacent dashes; the space before the closing "-->" keeps a trailing
// dash legal.
func (s *SVG) Comment(c string) {
	b := s.open("!-- ")
	for i := 0; i < len(c); i++ {
		b = append(b, c[i])
		if c[i] == '-' && i+1 < len(c) && c[i+1] == '-' {
			b = append(b, ' ')
		}
	}
	s.body = append(b, " -->\n"...)
}

// ElementCount returns the number of emitted elements (comments included).
func (s *SVG) ElementCount() int { return s.count }

// String serializes the document.
func (s *SVG) String() string {
	var hdr [256]byte
	h := append(hdr[:0], `<?xml version="1.0" encoding="UTF-8"?>`+"\n"+`<svg xmlns="http://www.w3.org/2000/svg"`...)
	h = attr(h, "width", s.w)
	h = attr(h, "height", s.h)
	h = append(h, ` viewBox="`...)
	h = append(num(h, -s.w/2), ' ')
	h = append(num(h, -s.h/2), ' ')
	h = append(num(h, s.w), ' ')
	h = append(num(h, s.h), `">`+"\n"...)
	var b strings.Builder
	b.Grow(len(h) + len(s.body) + len("</svg>\n"))
	b.Write(h)
	b.Write(s.body)
	b.WriteString("</svg>\n")
	return b.String()
}
