package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The edge-list format is the one graph input format:
//
//	# directed|undirected       (optional, at most one; before "# nodes" and every edge)
//	# nodes <n>                 (optional)
//	# label <id> <label...>     (optional, any number)
//	<u> <v> <w>                 (one logical edge per line; w optional, default 1)
//
// Node and label ids lie in [0, 2^31-1), so a node count is at most
// 2^31-1 and every id fits a NodeID. Weights are finite and non-negative.
// Other "#" lines are comments.

// maxNodes bounds a graph's node count; ids lie in [0, maxNodes).
const maxNodes = math.MaxInt32

// WriteEdgeList writes g in the text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	dir := "undirected"
	if g.Directed() {
		dir = "directed"
	}
	fmt.Fprintf(bw, "# %s\n# nodes %d\n", dir, g.NumNodes())
	if g.Labeled() {
		for i, l := range g.Labels() {
			if l != "" {
				fmt.Fprintf(bw, "# label %d %s\n", i, l)
			}
		}
	}
	var err error
	g.Edges(func(u, v NodeID, wt float64) bool {
		_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list format. It rejects, naming the line,
// what the graph cannot represent: an id outside [0, 2^31-1), a node
// count above 2^31-1, a NaN, infinite or negative weight, and a
// directedness line after another, the node count or an edge (it would
// contradict the first or drop them). An error names the line and the
// failed check but never quotes the line: the server reads files its
// clients name, and its errors must not echo their bytes.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	g := New(false)
	var labels []struct {
		id NodeID
		s  string
	}
	// A directedness line, a node count or an edge: too late to pick
	// directedness again.
	headed := false
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, "#") {
			fields := strings.Fields(strings.TrimSpace(t[1:]))
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "directed", "undirected":
				if headed {
					return nil, fmt.Errorf("graph: line %d: directedness line after a directedness line, the node count or an edge", line)
				}
				g = New(fields[0] == "directed")
				headed = true
			case "nodes":
				if len(fields) >= 2 {
					n, err := strconv.Atoi(fields[1])
					if err != nil || n < 0 || n > maxNodes {
						return nil, fmt.Errorf("graph: line %d: bad node count (want an integer in [0, 2^31-1])", line)
					}
					headed = true
					if n > g.NumNodes() {
						g.AddNodes(n - g.NumNodes())
					}
				}
			case "label":
				if len(fields) >= 3 {
					id, ok := parseNode(fields[1])
					if !ok {
						return nil, fmt.Errorf("graph: line %d: bad label id (want an integer in [0, 2^31-1))", line)
					}
					labels = append(labels, struct {
						id NodeID
						s  string
					}{id, strings.Join(fields[2:], " ")})
				}
			}
			continue
		}
		fields := strings.Fields(t)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v [w]', got one field", line)
		}
		u, ok := parseNode(fields[0])
		if !ok {
			return nil, fmt.Errorf("graph: line %d: bad node id u (want an integer in [0, 2^31-1))", line)
		}
		v, ok := parseNode(fields[1])
		if !ok {
			return nil, fmt.Errorf("graph: line %d: bad node id v (want an integer in [0, 2^31-1))", line)
		}
		w := 1.0
		if len(fields) >= 3 {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: bad weight (want a finite, non-negative number)", line)
			}
		}
		headed = true
		if top := int(max(u, v)); top >= g.NumNodes() {
			g.AddNodes(top + 1 - g.NumNodes())
		}
		g.AddEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, l := range labels {
		if int(l.id) >= g.NumNodes() {
			g.AddNodes(int(l.id) + 1 - g.NumNodes())
		}
		g.SetLabel(l.id, l.s)
	}
	return g, nil
}

// parseNode parses a node or label id in [0, maxNodes).
func parseNode(s string) (NodeID, bool) {
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 || id >= maxNodes {
		return 0, false
	}
	return NodeID(id), true
}
