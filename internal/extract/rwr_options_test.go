package extract

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRWROptionsNormalizeRejectsOutOfRange(t *testing.T) {
	cases := []RWROptions{
		{Restart: 1.5},
		{Restart: 1},
		{Restart: -0.1},
		{Epsilon: -1e-9},
		// NaN fails every range comparison, so before the explicit check a
		// NaN restart slipped through Normalize unchanged, poisoned the
		// whole solve and got cached by the server; Inf likewise for
		// epsilon (an infinite threshold "converges" instantly).
		{Restart: math.NaN()},
		{Restart: math.Inf(1)},
		{Restart: math.Inf(-1)},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: math.Inf(-1)},
		{Restart: 0.15, Epsilon: math.NaN()},
	}
	for _, o := range cases {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted out-of-range options", o)
		}
	}
	// Zero values mean "default", not "invalid".
	o, err := RWROptions{}.Normalize()
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if o.Restart != 0.15 || o.Epsilon != 1e-10 || o.MaxIter != 200 || o.Parallel < 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	// Normalize is idempotent (the server re-normalizes canonicalized
	// options without drift).
	o2, err := o.Normalize()
	if err != nil || o2 != o {
		t.Fatalf("not idempotent: %+v vs %+v (err %v)", o2, o, err)
	}
}

// TestOptionsNormalizeCapsMaxPathLen: a key-path length above
// MaxPathLenCap is rejected with an error that names the cap, before
// ConnectionSubgraph sizes any table for it (one request for a length of a
// million used to allocate (maxLen+1)·n parent entries per source and kill
// the server); the cap itself and the default stay accepted.
func TestOptionsNormalizeCapsMaxPathLen(t *testing.T) {
	for _, l := range []int{MaxPathLenCap + 1, 1000000} {
		_, err := Options{MaxPathLen: l}.Normalize()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxPathLenCap)) {
			t.Errorf("MaxPathLen %d: err %v, want a rejection naming the cap %d", l, err, MaxPathLenCap)
		}
	}
	for in, want := range map[int]int{0: 10, -3: 10, 1: 1, MaxPathLenCap: MaxPathLenCap} {
		o, err := Options{MaxPathLen: in}.Normalize()
		if err != nil || o.MaxPathLen != want {
			t.Errorf("MaxPathLen %d normalized to %d (err %v), want %d", in, o.MaxPathLen, err, want)
		}
	}
	g := pathGraph(6)
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{MaxPathLen: 1000000}); err == nil {
		t.Fatal("ConnectionSubgraph accepted maxPathLen 1000000")
	}
}

// TestBadOptionsPropagate checks the rejection surfaces through every
// solver entry point instead of silently remapping to defaults.
func TestBadOptionsPropagate(t *testing.T) {
	g := pathGraph(6)
	c := graph.ToCSR(g)
	bad := RWROptions{Restart: 1.5}
	if _, err := RWR(c, 0, bad); err == nil {
		t.Fatal("RWR accepted restart 1.5")
	}
	if _, err := RWRSet(c, []graph.NodeID{0}, bad); err == nil {
		t.Fatal("RWRSet accepted restart 1.5")
	}
	if _, err := RWRMulti(c, []graph.NodeID{0, 3}, bad); err == nil {
		t.Fatal("RWRMulti accepted restart 1.5")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{RWR: bad}); err == nil {
		t.Fatal("ConnectionSubgraph accepted restart 1.5")
	}
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{RWR: RWROptions{Epsilon: -1}}); err == nil {
		t.Fatal("ConnectionSubgraph accepted negative epsilon")
	}
}
