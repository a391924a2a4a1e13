package dblp

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graph"
)

func TestAuthorNameUniqueness(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 200000; i++ {
		name := AuthorName(i)
		if prev, ok := seen[name]; ok {
			t.Fatalf("collision: AuthorName(%d) == AuthorName(%d) == %q", i, prev, name)
		}
		seen[name] = i
	}
}

func TestAuthorNameDeterministic(t *testing.T) {
	if AuthorName(12345) != AuthorName(12345) {
		t.Fatal("names not deterministic")
	}
	if AuthorName(0) == AuthorName(1) {
		t.Fatal("adjacent names equal")
	}
}

func TestGenerateScaleTargets(t *testing.T) {
	ds := Generate(Config{Scale: 0.02, Seed: 1})
	n := ds.Graph.NumNodes()
	m := ds.Graph.NumEdges()
	scale := 0.02
	wantN := int(float64(FullNodes) * scale)
	if n < wantN || n > wantN+10 {
		t.Fatalf("n=%d want about %d", n, wantN)
	}
	wantM := float64(FullEdges) * 0.02
	if float64(m) < 0.5*wantM || float64(m) > 1.5*wantM {
		t.Fatalf("m=%d want within 50%% of %g", m, wantM)
	}
	if err := ds.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 0.01, Seed: 5})
	b := Generate(Config{Scale: 0.01, Seed: 5})
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
	if a.Papers != b.Papers {
		t.Fatal("same seed, different paper counts")
	}
	equal := true
	a.Graph.Edges(func(u, v graph.NodeID, w float64) bool {
		if b.Graph.EdgeWeight(u, v) != w {
			equal = false
			return false
		}
		return true
	})
	if !equal {
		t.Fatal("same seed, different edges")
	}
	c := Generate(Config{Scale: 0.01, Seed: 6})
	if c.Graph.NumEdges() == a.Graph.NumEdges() && c.Papers == a.Papers {
		t.Fatal("different seeds produced identical dataset (suspicious)")
	}
}

func TestCommunityStructureIsAssortative(t *testing.T) {
	ds := Generate(Config{Scale: 0.02, Communities: 10, Seed: 3})
	intra, inter := 0, 0
	ds.Graph.Edges(func(u, v graph.NodeID, w float64) bool {
		if ds.Community[u] == ds.Community[v] {
			intra++
		} else {
			inter++
		}
		return true
	})
	frac := float64(intra) / float64(intra+inter)
	if frac < 0.80 {
		t.Fatalf("intra-community edge fraction %.2f, want >= 0.80 (planted structure)", frac)
	}
	if inter == 0 {
		t.Fatal("no cross-community edges at all; connectivity edges would be empty")
	}
}

func TestHeavyTailedDegrees(t *testing.T) {
	ds := Generate(Config{Scale: 0.02, Seed: 2})
	st := analysis.ReportAdj(graph.ToCSR(ds.Graph), ds.Graph.Directed()).Degree
	if st.Max < 10*int(st.Mean) {
		t.Fatalf("max degree %d vs mean %.1f: tail too light for a co-authorship graph", st.Max, st.Mean)
	}
	if math.IsNaN(st.PowerLawExponent) {
		t.Fatal("no power-law exponent on a heavy-tailed graph")
	}
	if st.PowerLawExponent < 1 || st.PowerLawExponent > 4 {
		t.Fatalf("power-law exponent %.2f outside plausible [1,4]", st.PowerLawExponent)
	}
}

func TestNotablesPlanted(t *testing.T) {
	ds := Generate(Config{Scale: 0.01, Seed: 4})
	g := ds.Graph
	for _, name := range []string{
		NameJiaweiHan, NameKeWang, NamePhilipYu, NameFlipKorn,
		NameGarofalakis, NameJagadish, NameMiller, NameStockton,
	} {
		id, ok := ds.Notables[name]
		if !ok {
			t.Fatalf("notable %q not planted", name)
		}
		if g.Label(id) != name {
			t.Fatalf("notable %q label mismatch: %q", name, g.Label(id))
		}
	}
	han := ds.Notables[NameJiaweiHan]
	wang := ds.Notables[NameKeWang]
	// Ke Wang is Han's heaviest collaborator.
	hanWang := g.EdgeWeight(han, wang)
	if hanWang < 18 {
		t.Fatalf("Han-Wang weight %g, want >= 18", hanWang)
	}
	for _, e := range g.Neighbors(han) {
		if e.To != wang && e.Weight > hanWang {
			t.Fatalf("co-author %d outweighs Ke Wang (%g > %g)", e.To, e.Weight, hanWang)
		}
	}
	// Han is a hub.
	if g.Degree(han) < 50 {
		t.Fatalf("Jiawei Han degree %d, want a hub", g.Degree(han))
	}
}

func TestNotableFig5Topology(t *testing.T) {
	ds := Generate(Config{Scale: 0.01, Seed: 8})
	g := ds.Graph
	korn := ds.Notables[NameFlipKorn]
	jaga := ds.Notables[NameJagadish]
	yu := ds.Notables[NamePhilipYu]
	garo := ds.Notables[NameGarofalakis]
	// Jagadish has a direct connection with Flip Korn...
	if !g.HasEdge(jaga, korn) {
		t.Fatal("Jagadish-Korn edge missing")
	}
	// ...and 1-step-away connections with Yu and Garofalakis: an edge, or
	// a co-author in common.
	within2 := func(v graph.NodeID) bool {
		if g.HasEdge(jaga, v) {
			return true
		}
		for _, e := range g.Neighbors(jaga) {
			if g.HasEdge(e.To, v) {
				return true
			}
		}
		return false
	}
	if !within2(yu) {
		t.Fatal("Jagadish-Yu distance above 2")
	}
	if !within2(garo) {
		t.Fatal("Jagadish-Garofalakis distance above 2")
	}
}

func TestMillerStocktonOutlierPair(t *testing.T) {
	ds := Generate(Config{Scale: 0.01, Seed: 9})
	g := ds.Graph
	m := ds.Notables[NameMiller]
	s := ds.Notables[NameStockton]
	if g.Degree(m) != 1 || g.Degree(s) != 1 {
		t.Fatalf("outlier pair degrees %d,%d want 1,1", g.Degree(m), g.Degree(s))
	}
	if g.EdgeWeight(m, s) != 1 {
		t.Fatalf("outlier edge weight %g want 1 (their unique 1989 publication)", g.EdgeWeight(m, s))
	}
	if len(ds.Community) != g.NumNodes() {
		t.Fatalf("community slice %d != nodes %d", len(ds.Community), g.NumNodes())
	}
}

func TestSkipNotables(t *testing.T) {
	ds := Generate(Config{Scale: 0.01, Seed: 10, SkipNotables: true})
	if len(ds.Notables) != 0 {
		t.Fatal("notables planted despite SkipNotables")
	}
	if ds.Graph.FindLabel(NameJiaweiHan) != -1 {
		t.Fatal("Jiawei Han present despite SkipNotables")
	}
}

func TestSmallFixture(t *testing.T) {
	ds := SmallFixture()
	if ds.Graph.NumNodes() < 100 {
		t.Fatalf("fixture too small: %d", ds.Graph.NumNodes())
	}
	if ds.Describe() == "" {
		t.Fatal("empty description")
	}
	// Largest component should dominate (DBLP has a giant component).
	lc := analysis.LargestComponent(graph.ToCSR(ds.Graph))
	if float64(len(lc)) < 0.5*float64(ds.Graph.NumNodes()) {
		t.Fatalf("giant component only %d of %d nodes", len(lc), ds.Graph.NumNodes())
	}
}

func TestCasualCommunitiesLessProductive(t *testing.T) {
	cfg := Config{Scale: 0.02, Communities: 10, CasualFrac: 0.4, Seed: 11}.withDefaults()
	ds := Generate(cfg)
	nc := cfg.Communities
	nCasual := int(float64(nc) * cfg.CasualFrac)
	// Average weighted degree (productivity proxy) per community.
	sum := make([]float64, nc)
	cnt := make([]int, nc)
	g := ds.Graph
	for u := 0; u < g.NumNodes(); u++ {
		c := ds.Community[u]
		sum[c] += g.WeightedDegree(graph.NodeID(u))
		cnt[c]++
	}
	var active, casual float64
	var na, ncs int
	for c := 0; c < nc; c++ {
		if cnt[c] == 0 {
			continue
		}
		avg := sum[c] / float64(cnt[c])
		if c >= nc-nCasual {
			casual += avg
			ncs++
		} else {
			active += avg
			na++
		}
	}
	active /= float64(na)
	casual /= float64(ncs)
	if casual >= active*0.7 {
		t.Fatalf("casual communities not less productive: %.2f vs active %.2f", casual, active)
	}
}
