package gtree

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// Fuzz targets for the on-disk decode paths: arbitrary bytes — truncated
// blobs, flipped counts, CRC-failing pages — must come back as errors,
// never as panics or runaway allocations. Run as seed-corpus unit tests
// in CI; `go test -fuzz FuzzDecodeLeaf ./internal/gtree` explores further.

// leafBlobSeed produces one valid encoded leaf to anchor the corpus.
func leafBlobSeed() []byte {
	g := graph.NewWithNodes(5, false)
	g.SetLabel(0, "alpha")
	g.SetLabel(3, "beta")
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 3, 2.0)
	g.AddEdge(2, 4, 0.5)
	return encodeLeaf(g, []graph.NodeID{0, 1, 2, 3, 4})
}

func FuzzDecodeLeaf(f *testing.F) {
	seed := leafBlobSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // huge member count, no bytes
	f.Fuzz(func(t *testing.T, blob []byte) {
		sub, members, err := decodeLeaf(blob, false)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent.
		if len(members) != sub.NumNodes() {
			t.Fatalf("members %d vs nodes %d", len(members), sub.NumNodes())
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("decoded leaf fails validation: %v", err)
		}
	})
}

// csrFileSeed persists a small v2 tree and returns the raw file bytes.
func csrFileSeed(f *testing.F) []byte {
	f.Helper()
	g := graph.NewWithNodes(12, false)
	for i := 0; i < 11; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), float64(i+1))
	}
	g.AddEdge(0, 6, 3)
	tree, err := Build(g, BuildOptions{K: 2, Levels: 2})
	if err != nil {
		f.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gtree-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.gtree")
	if err := Save(tree, g, path, 256); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzOpenCSRSection feeds mutated whole-file images through OpenFile and
// the paged CSR read path. Opens may fail (bad magic, CRC, counts); an
// open that succeeds must then serve reads without panicking, reporting
// corruption through PagedCSR.Err at worst.
func FuzzOpenCSRSection(f *testing.F) {
	raw := csrFileSeed(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])          // truncated mid-file
	f.Add(raw[:512])                 // superblock + one page
	f.Add(append(raw, raw[:256]...)) // trailing garbage page
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.gtree")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := OpenFile(path, 4)
		if err != nil {
			return
		}
		defer s.Close()
		c, err := s.PagedCSR()
		if err != nil {
			return
		}
		n := c.N()
		if n > 1<<16 {
			n = 1 << 16 // bound the walk, not the decode
		}
		cur := c.Cursor()
		for u := 0; u < n && c.Err() == nil; u++ {
			cur.Neighbors(graph.NodeID(u))
		}
		cur.Close()
		if c.Err() != nil {
			return
		}
		c.WeightedDegrees()
		for _, leaf := range s.Tree().Leaves() {
			if _, _, err := s.LoadLeaf(leaf); err != nil {
				return
			}
		}
		_ = s.LabelOf(0)
	})
}
