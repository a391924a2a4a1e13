package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dblp"
	"repro/internal/gtree"
)

// TestBuildGoldenDigest pins the bytes of the saved G-Tree for four
// synthetic DBLP fixtures. The digests were taken at the commit before the
// linear-time FM refinement landed, so they prove that a change to the
// partitioner's speed left every partition, tie-break and tree id alone. A
// change that is meant to alter the partitions re-pins them and says so.
//
// Beside each file digest sits a digest of the tree alone (treeDigest): a
// change to the file format re-pins the file digest, and the unchanged
// tree digest shows that the partition did not drift with it. The file
// digests were last re-pinned for format version 3 (labels only in the
// label index).
func TestBuildGoldenDigest(t *testing.T) {
	cases := []struct {
		scale      float64
		seed       int64
		levels     int
		file, tree string
	}{
		{0.03, 1, 4, "657d06b1ef0ad8775071271a2f88b2075f46f27ee89da15ae7d9b025a43eae63", "b4f497e651d720c4b196a392f82090056543b9a9b417466d80c80630e9086d89"},
		{0.03, 2, 4, "bd8bfdc3c51488a829de4f6c7ae5146556ff233b495ac5ffbc8cb4ebd20a21a3", "670cd6e3fa2685ba9e0c7d17256c52f887e31f587024f864c9f343a1dd2ec03b"},
		{0.03, 3, 4, "b024e93a4554478b3f3a1fdb2fcd96607d7824d9a9e91f112eecb85e4536c05a", "d1b32792fc17936b8d3675cbb1830f2d2fae7cddf2c9480b9dfb83659c203d59"},
		{0.1, 1, 5, "0ff2ee07ba63a872e89ee94a17811455eeb6c62c0c159ec54802621003b09d6f", "9a460c73bfce2abbba502d72eeb656b0215768ea6ff5792b67f0d5057d87abc3"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("scale%g_seed%d", tc.scale, tc.seed), func(t *testing.T) {
			ds := dblp.Generate(dblp.Config{Scale: tc.scale, Seed: tc.seed})
			eng, err := BuildEngine(ds.Graph, BuildConfig{K: 5, Levels: tc.levels, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "g.gtree")
			if err := eng.SaveTree(path, 0); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.file {
				t.Errorf("SaveTree digest = %s, want %s", got, tc.file)
			}
			if got := treeDigest(t, eng, ds.Graph.NumNodes()); got != tc.tree {
				t.Errorf("tree digest = %s, want %s", got, tc.tree)
			}
		})
	}
}

// treeDigest hashes an engine's tree independently of any file layout:
// per community its parent, level, size, sorted children, internal count
// and weight, and a leaf's sorted members (read from its blob); then every
// connectivity entry in key order with its count and weight. n is the
// graph's node count, which the leaves must cover.
func treeDigest(t *testing.T, eng *Engine, n int) string {
	t.Helper()
	tr := eng.Tree()
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	members := 0
	put(uint64(tr.K), uint64(tr.Levels), uint64(tr.NumCommunities()))
	for id := range tr.NumCommunities() {
		c := tr.Node(gtree.TreeID(id))
		put(uint64(c.Parent), uint64(c.Level), uint64(c.Size),
			uint64(c.InternalCount), math.Float64bits(c.InternalWeight))
		put(uint64(len(c.Children)))
		for _, ch := range slices.Sorted(slices.Values(c.Children)) {
			put(uint64(ch))
		}
		if c.IsLeaf() {
			_, leaf, err := eng.LeafSubgraph(gtree.TreeID(id))
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(len(leaf)))
			for _, u := range slices.Sorted(slices.Values(leaf)) {
				put(uint64(u))
			}
			members += len(leaf)
		}
	}
	if members != n {
		t.Fatalf("leaves hold %d members, want all %d graph nodes", members, n)
	}
	tr.ConnectedPairs(func(a, b gtree.TreeID, s gtree.ConnStat) bool {
		put(uint64(a), uint64(b), uint64(s.Count), math.Float64bits(s.Weight))
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}
