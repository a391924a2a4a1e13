package extract

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// resultDigest folds everything an extraction returns that a refactor of
// the solvers could move — chosen nodes in order, their goodness bits, the
// round count and the induced edges — into one SHA-256.
func resultDigest(res *Result) string {
	h := sha256.New()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(res.Iterations))
	put(uint64(len(res.Nodes)))
	for i, u := range res.Nodes {
		put(uint64(u))
		put(math.Float64bits(res.Goodness[i]))
	}
	for _, s := range res.Sources {
		put(uint64(s))
	}
	res.Subgraph.Edges(func(u, v graph.NodeID, w float64) bool {
		put(uint64(u))
		put(uint64(v))
		put(math.Float64bits(w))
		return true
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestConnectionSubgraphGolden pins whole extraction results — on the
// fixtures the other ConnectionSubgraph tests already draw — to digests
// taken before the RWR solves and key-path DPs were fused across sources,
// on the in-memory CSR and a paged CSR at pool 16. Restart, budget, mode
// and source count vary so a digest covers early budget fill, k-softAND
// and more sources than one fused DP group holds.
func TestConnectionSubgraphGolden(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n, extra int
		sources  []graph.NodeID
		opts     Options
		want     string
	}{
		{7, 200, 400, []graph.NodeID{3, 120, 77}, Options{Budget: 30}, "159bf8fad3011a59df7172d9"},
		{9, 150, 300, []graph.NodeID{5, 100}, Options{Budget: 10}, "77d8239d90453f339ceb3214"},
		{9, 150, 300, []graph.NodeID{5, 100}, Options{Budget: 40}, "54851fb2e393c4249a59506d"},
		{5, 150, 300, []graph.NodeID{4, 80, 120}, Options{Budget: 25}, "496e9ff419d1d1244b206b3b"},
		{9, 250, 900, []graph.NodeID{5, 130, 240}, Options{Budget: 25, RWR: RWROptions{Restart: 0.5}}, "a9ba25b4a20f20dfce385273"},
		{11, 300, 700, []graph.NodeID{17}, Options{Budget: 12}, "117daf28e34fb04ca43b755d"},
		{11, 300, 700, []graph.NodeID{1, 60, 119, 178, 237, 296}, Options{Budget: 60, Mode: CombineKSoftAND, K: 4, MaxPathLen: 6}, "4eeb4a3531a9509c85a8cccf"},
		{13, 120, 150, []graph.NodeID{2, 40, 80, 118}, Options{Budget: 9, Mode: CombineOR, RWR: RWROptions{MaxIter: 12}}, "b3444419f09e9d2772495025"},
	} {
		g := randomConnected(rand.New(rand.NewSource(tc.seed)), tc.n, tc.extra)
		for name, adj := range map[string]graph.Adjacency{"csr": graph.ToCSR(g), "paged": pagedFixture(t, g, 16)} {
			res, err := ConnectionSubgraphAdj(adj, false, nil, tc.sources, tc.opts)
			if err != nil {
				t.Fatalf("seed %d %v on %s: %v", tc.seed, tc.sources, name, err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("seed %d sources %v budget %d on %s: digest %s, want %s", tc.seed, tc.sources, tc.opts.Budget, name, got, tc.want)
			}
		}
	}
}
