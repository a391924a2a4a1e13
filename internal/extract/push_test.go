package extract

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestRWRPushApproximatesPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 300, 900)
	c := graph.ToCSR(g)
	src := graph.NodeID(17)
	exact, err := RWR(c, src, RWROptions{Epsilon: 1e-13, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RWRPush(c, src, 0.15, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Pointwise error bounded by epsilon * wdeg.
	for u := 0; u < c.N(); u++ {
		bound := 1e-9*c.WeightedDegree(graph.NodeID(u)) + 1e-9
		if d := math.Abs(exact[u] - approx[u]); d > bound*2 {
			t.Fatalf("node %d: |%g - %g| = %g exceeds bound", u, exact[u], approx[u], d)
		}
	}
	// Top-10 sets agree.
	top := func(v []float64) map[graph.NodeID]bool {
		set := map[graph.NodeID]bool{}
		for _, u := range TopGoodness(v, 10) {
			set[u] = true
		}
		return set
	}
	te, ta := top(exact), top(approx)
	inter := 0
	for u := range te {
		if ta[u] {
			inter++
		}
	}
	if inter < 8 {
		t.Fatalf("top-10 overlap %d/10 too low", inter)
	}
}

func TestRWRPushMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 100, 200)
	c := graph.ToCSR(g)
	p, err := RWRPush(c, 0, 0.2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range p {
		sum += x
	}
	// Estimate mass plus (unpushed) residual mass equals 1; with a tiny
	// epsilon, the estimate alone must be close to 1.
	if sum < 0.999 || sum > 1.000001 {
		t.Fatalf("estimate mass %g want ~1", sum)
	}
}

func TestRWRPushIsolatedSource(t *testing.T) {
	g := graph.NewWithNodes(3, false)
	g.AddEdge(1, 2, 1)
	c := graph.ToCSR(g)
	p, err := RWRPush(c, 0, 0.15, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-1) > 1e-9 || p[1] != 0 || p[2] != 0 {
		t.Fatalf("isolated push distribution %v", p)
	}
}

func TestRWRPushErrors(t *testing.T) {
	g := graph.NewWithNodes(2, false)
	g.AddEdge(0, 1, 1)
	c := graph.ToCSR(g)
	if _, err := RWRPush(c, 99, 0.15, 1e-8); err == nil {
		t.Fatal("accepted bad source")
	}
	// Zero means "use the default"...
	if _, err := RWRPush(c, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// ...but explicitly out-of-range or non-finite parameters are rejected
	// (reject-don't-remap, matching RWROptions.Normalize) instead of being
	// silently remapped to the defaults as they once were.
	bad := []struct{ restart, epsilon float64 }{
		{-1, 1e-8},
		{1, 1e-8},
		{1.5, 1e-8},
		{math.NaN(), 1e-8},
		{math.Inf(1), 1e-8},
		{0.15, -1},
		{0.15, math.NaN()},
		{0.15, math.Inf(1)},
	}
	for _, tc := range bad {
		if _, err := RWRPush(c, 0, tc.restart, tc.epsilon); err == nil {
			t.Errorf("RWRPush accepted restart=%g epsilon=%g", tc.restart, tc.epsilon)
		}
	}
}

func TestRWRPushSourceDominates(t *testing.T) {
	g := pathGraph(11)
	c := graph.ToCSR(g)
	p, err := RWRPush(c, 5, 0.15, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if i != 5 && p[i] >= p[5] {
			t.Fatalf("p[%d]=%g >= p[src]=%g", i, p[i], p[5])
		}
	}
}
