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
// tree digest shows that the partition did not drift with it.
func TestBuildGoldenDigest(t *testing.T) {
	cases := []struct {
		scale      float64
		seed       int64
		levels     int
		file, tree string
	}{
		{0.03, 1, 4, "6be819dbc1da2990844056ac1315251ce5ad7e7688f24b098f3034d6f7749bc9", "b4f497e651d720c4b196a392f82090056543b9a9b417466d80c80630e9086d89"},
		{0.03, 2, 4, "5c9a9576547e0ec213ab056fd1df14c19724a5346af531a9f69a28f6ec6dcdb1", "670cd6e3fa2685ba9e0c7d17256c52f887e31f587024f864c9f343a1dd2ec03b"},
		{0.03, 3, 4, "0e99c13af735efafef480b3dde4ed0bda1da8b08e812277831b9db4a283e45d7", "d1b32792fc17936b8d3675cbb1830f2d2fae7cddf2c9480b9dfb83659c203d59"},
		{0.1, 1, 5, "9920a7c1d54c651b9f9054186dae2821f127c95b84ea084257aba96feaabd096", "9a460c73bfce2abbba502d72eeb656b0215768ea6ff5792b67f0d5057d87abc3"},
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
			if got := treeDigest(t, eng.Tree(), ds.Graph.NumNodes()); got != tc.tree {
				t.Errorf("tree digest = %s, want %s", got, tc.tree)
			}
		})
	}
}

// treeDigest hashes a built tree independently of any file layout: per
// community its parent, level, size, sorted children, internal count and
// weight, and a leaf's sorted members; then every connectivity entry in
// key order with its count and weight. n is the graph's node count, which
// the leaves must cover.
func treeDigest(t *testing.T, tr *gtree.Tree, n int) string {
	t.Helper()
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
			put(uint64(len(c.Members)))
			for _, u := range slices.Sorted(slices.Values(c.Members)) {
				put(uint64(u))
			}
			members += len(c.Members)
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
