package graph

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList: no input makes the edge-list reader panic, and every
// graph it accepts passes Validate. Inputs with a numeric token above
// 1<<16 are skipped, so an accepted id or node count cannot ask for
// gigabytes; TestEdgeListRejectsGarbage covers the bound itself.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# undirected\n# nodes 4\n# label 0 Jiawei Han\n0 1 2\n1 2\n3 3 0.5\n")
	f.Add("# directed\n0 1\n1 0 3\n")
	f.Add("0 1\n# directed\n")
	f.Add("0 1 NaN\n-1 2\n")
	f.Add("# nodes 5\n# label 7 x\n\n# note\n2 4 1e-300\n")
	f.Fuzz(func(t *testing.T, in string) {
		for _, tok := range strings.Fields(in) {
			if v, err := strconv.ParseFloat(tok, 64); err == nil && v > 1<<16 {
				t.Skip()
			}
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted %q, which fails Validate: %v", in, err)
		}
	})
}
