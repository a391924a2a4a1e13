package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dblp"
)

// TestBuildGoldenDigest pins the bytes of the saved G-Tree for four
// synthetic DBLP fixtures. The digests were taken at the commit before the
// linear-time FM refinement landed, so they prove that a change to the
// partitioner's speed left every partition, tie-break and tree id alone. A
// change that is meant to alter the partitions re-pins them and says so.
func TestBuildGoldenDigest(t *testing.T) {
	cases := []struct {
		scale  float64
		seed   int64
		levels int
		want   string
	}{
		{0.03, 1, 4, "6be819dbc1da2990844056ac1315251ce5ad7e7688f24b098f3034d6f7749bc9"},
		{0.03, 2, 4, "5c9a9576547e0ec213ab056fd1df14c19724a5346af531a9f69a28f6ec6dcdb1"},
		{0.03, 3, 4, "0e99c13af735efafef480b3dde4ed0bda1da8b08e812277831b9db4a283e45d7"},
		{0.1, 1, 5, "9920a7c1d54c651b9f9054186dae2821f127c95b84ea084257aba96feaabd096"},
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
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("SaveTree digest = %s, want %s", got, tc.want)
			}
		})
	}
}
