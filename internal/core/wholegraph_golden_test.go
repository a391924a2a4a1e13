package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
)

// floatsDigest is the SHA-256 of a vector's IEEE-754 bits, in order.
func floatsDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestWholeGraphGolden pins the whole-graph kernels — PageRank, the
// structure report and a one-walk RWR — to digests taken before the
// sharded sweeps and the node-centric fallbacks were deleted. At that
// commit every digest was taken twice, with the engines' default (auto)
// shard count and with SetSweepShards(1), and the two agreed. The
// fixture clears the old auto-sharding gate of 8192 half-edges, so at the
// parent the auto runs really did shard. Every engine must match one
// digest per kernel: memory, paged at pool 16, and tiered.
func TestWholeGraphGolden(t *testing.T) {
	const (
		wantPageRank = "1020304053a1a7a44287e58c81c65c91181840c59c58edaaee2ced5a25a581d1"
		wantReport   = "a0cb7ac9efeb7ad1da041bf138c7d6128865312291fb40b15957192614a61ecb"
		wantRWR      = "f260d450eb412410855caec2a4033093daf5435e6b34ce76dfbcbd7ebe6c58fe"
	)
	ds := dblp.Generate(dblp.Config{Scale: 0.03, Seed: 1})
	for _, shards := range []int{0, 1} {
		mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "w.gtree")
		if err := mem.SaveTree(path, 256); err != nil {
			t.Fatal(err)
		}
		paged, err := OpenEngine(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer paged.Close()
		tiered, err := OpenEngine(path, 64)
		if err != nil {
			t.Fatal(err)
		}
		defer tiered.Close()
		tiered.SetTierBudget(1 << 20)
		engines := []struct {
			name string
			eng  *Engine
		}{{"memory", mem}, {"paged", paged}, {"tiered", tiered}}

		for _, e := range engines {
			if shards != 0 {
				e.eng.SetSweepShards(shards)
			}
			tag := fmt.Sprintf("%s/shards=%d", e.name, shards)
			ranks, err := e.eng.PageRank(analysis.PageRankOptions{})
			if err != nil {
				t.Fatalf("%s: PageRank: %v", tag, err)
			}
			if got := floatsDigest(ranks); got != wantPageRank {
				t.Errorf("%s: PageRank digest %s, want %s", tag, got, wantPageRank)
			}
			rep, err := e.eng.AnalyzeGraph(analysis.PageRankOptions{}, 10)
			if err != nil {
				t.Fatalf("%s: AnalyzeGraph: %v", tag, err)
			}
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != wantReport {
				t.Errorf("%s: AnalyzeGraph digest %s, want %s", tag, got, wantReport)
			}
			if e.eng == tiered {
				continue
			}
			adj, err := e.eng.Adj()
			if err != nil {
				t.Fatal(err)
			}
			if shards == 0 && adj.HalfEdges() < 8192 {
				t.Fatalf("%s: fixture has %d half-edges, below the old auto-shard gate", tag, adj.HalfEdges())
			}
			src := ds.Notables[dblp.NamePhilipYu]
			r, err := extract.RWRSet(adj, []graph.NodeID{src}, extract.RWROptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s: RWRSet: %v", tag, err)
			}
			if got := floatsDigest(r); got != wantRWR {
				t.Errorf("%s: RWRSet digest %s, want %s", tag, got, wantRWR)
			}
		}
	}
}
