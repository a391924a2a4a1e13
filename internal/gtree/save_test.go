package gtree

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

var errInjected = errors.New("injected write-path failure")

// syncFailFile fails Sync; everything else goes to the MemFile.
type syncFailFile struct{ *storage.MemFile }

func (syncFailFile) Sync() error { return errInjected }

// nthWriteFailFile fails the k-th WriteAt (1-based) and every later one.
type nthWriteFailFile struct {
	storage.File
	k, writes int
}

func (f *nthWriteFailFile) WriteAt(p []byte, off int64) (int, error) {
	if f.writes++; f.writes >= f.k {
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
}

// TestSaveToReturnsSyncError: the final flush's fsync error is the save's
// error, not something a deferred Close throws away.
func TestSaveToReturnsSyncError(t *testing.T) {
	g := labeledCommunityGraph(rand.New(rand.NewSource(3)), 3, 12)
	tr := buildTest(t, g, 2, 2)
	if err := SaveTo(tr, graph.ToCSR(g), g.Directed(), g.Label, syncFailFile{storage.NewMemFile(nil)}, 0); !errors.Is(err, errInjected) {
		t.Fatalf("SaveTo over a failing Sync returned %v, want the sync error", err)
	}
	if err := SaveTo(tr, graph.ToCSR(g), g.Directed(), g.Label, storage.NewMemFile(nil), 0); err != nil {
		t.Fatalf("SaveTo over a sound file: %v", err)
	}
}

// TestSaveCrashSafe fails the k-th write of a save over an existing file,
// for writes early, in the middle and last: the old file must stay
// byte-identical and no temp file may be left in its directory. The
// replace below is Save's body with the failing file slid under SaveTo.
func TestSaveCrashSafe(t *testing.T) {
	g := labeledCommunityGraph(rand.New(rand.NewSource(4)), 3, 16)
	tr := buildTest(t, g, 2, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.gmine")
	if err := Save(tr, graph.ToCSR(g), g.Directed(), g.Label, path, 512); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g2 := labeledCommunityGraph(rand.New(rand.NewSource(5)), 3, 16) // a different file
	tr2 := buildTest(t, g2, 2, 2)
	// Count the writes the replacing save makes.
	counter := &nthWriteFailFile{File: storage.NewMemFile(nil), k: 1 << 30}
	if err := SaveTo(tr2, graph.ToCSR(g2), g2.Directed(), g2.Label, counter, 512); err != nil {
		t.Fatal(err)
	}
	total := counter.writes
	if total < 4 {
		t.Fatalf("a save made only %d writes", total)
	}
	for _, k := range []int{1, 2, total / 2, total} {
		err := storage.ReplaceFile(path, func(f storage.File) error {
			return SaveTo(tr2, graph.ToCSR(g2), g2.Directed(), g2.Label, &nthWriteFailFile{File: f, k: k}, 512)
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("write %d of %d failed, save returned %v", k, total, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, old) {
			t.Fatalf("write %d of %d failed and the old file changed (%v)", k, total, err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("write %d of %d failed and left %d entries in the directory (%v)", k, total, len(ents), err)
		}
	}
	if err := Save(tr2, graph.ToCSR(g2), g2.Directed(), g2.Label, path, 512); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenFile(path, 8); err != nil || st.GraphNodes() != g2.NumNodes() {
		t.Fatalf("the replacing save did not land: %v", err)
	} else {
		st.Close()
	}
}

// TestOpenWithMemFile opens a tree saved into memory: it reads like the
// same bytes opened from disk, and PromoteTier makes the whole graph
// resident at exactly its cost.
func TestOpenWithMemFile(t *testing.T) {
	g := labeledCommunityGraph(rand.New(rand.NewSource(6)), 4, 20)
	tr, disk := saveLoad(t, g, 2, 3, 0, 16)
	f := storage.NewMemFile(nil)
	if err := SaveTo(tr, graph.ToCSR(g), g.Directed(), g.Label, f, 0); err != nil {
		t.Fatal(err)
	}
	mem, err := OpenWith(f, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if mem.GraphNodes() != disk.GraphNodes() || mem.FilePages() != disk.FilePages() {
		t.Fatalf("memory store: %d nodes %d pages, disk store: %d nodes %d pages",
			mem.GraphNodes(), mem.FilePages(), disk.GraphNodes(), disk.FilePages())
	}
	for _, leaf := range tr.Leaves() {
		a, _, err := mem.LoadLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := disk.LoadLeaf(leaf)
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("leaf %d: %d edges in memory, %d on disk", leaf, a.NumEdges(), b.NumEdges())
		}
	}
	if adj, _ := mem.Adj(); adj == nil {
		t.Fatal("no adjacency")
	} else if _, ok := adj.(*graph.CSR); ok {
		t.Fatal("adjacency resident before PromoteTier")
	}
	if err := mem.PromoteTier(); err != nil {
		t.Fatal(err)
	}
	csr, err := mem.PagedCSR()
	if err != nil {
		t.Fatal(err)
	}
	ti := mem.TierInfo()
	if ti == nil || ti.Fragments != 1 || ti.Promotions != 1 || ti.Budget != tierCost(csr) || ti.Bytes != ti.Budget {
		t.Fatalf("tier after PromoteTier: %+v, want one promotion at cost %d", ti, tierCost(csr))
	}
	adj, err := mem.Adj()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adj.(*graph.CSR); !ok {
		t.Fatalf("Adj is %T after PromoteTier, want the resident *graph.CSR", adj)
	}
}
