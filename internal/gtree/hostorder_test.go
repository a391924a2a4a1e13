package gtree

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/storage"
)

// TestHostOrderPathsAgree runs the big-endian paths on every host by
// clearing nativeLE for its duration: cursor rows decoded instead of
// viewed in the frame (frameIDs), and sweep windows read into a byte
// buffer and decoded instead of read straight into the decoded window
// (hostBytes). TestBackends' big-endian row checks their rows; here, on
// a fixture with hub rows straddling pages and a row straddling sweep
// windows, two rows of one page share the frame on the native path only,
// a scripted checksum failure on a mid-sweep window read latches exactly
// one fault on either path, after only clean, complete rows were emitted,
// and the next sweep reads clean. A warm sweep on the native path
// allocates nothing.
func TestHostOrderPathsAgree(t *testing.T) {
	const pageSize = 256
	g := hubGraph(600, 2500, 3, 11) // ~10k half-edges: several sweep windows
	want, o := graph.ToCSR(g), graphtest.NewOracle(g)
	path := buildAndSave(t, g, pageSize)
	n := graph.NodeID(want.N())

	// The fixture must hold rows that straddle pages and a row that
	// straddles sweep windows; the window bounds follow advanceWindow.
	idsPer := int32(storage.RunPerPage(4, pageSize-4))
	pageRows, windowRows := 0, 0
	a := graph.NodeID(-1) // a and a+1: two non-empty rows on one page
	for u, winHi := 0, int32(0); u < want.N(); u++ {
		lo, hi := want.Xadj[u], want.Xadj[u+1]
		if lo == hi {
			continue
		}
		if lo/idsPer != (hi-1)/idsPer {
			pageRows++
		} else if next := want.Xadj[u+2]; a < 0 && next > hi && lo/idsPer == (next-1)/idsPer {
			a = graph.NodeID(u)
		}
		if hi > winHi {
			if lo < winHi {
				windowRows++
			} else {
				winHi = lo
			}
			winHi = min(max(winHi+sweepEdgeChunk, hi), int32(want.HalfEdges()))
		}
	}
	if pageRows < 10 || windowRows == 0 || a < 0 {
		t.Fatalf("fixture has %d rows straddling pages, %d straddling sweep windows, one-page row pair %d", pageRows, windowRows, a)
	}

	native := nativeLE
	t.Cleanup(func() { nativeLE = native })
	for _, le := range []bool{native, false} {
		nativeLE = le
		tag := "native"
		if !le {
			tag = "big-endian"
		}
		var inj *storage.FaultInjector
		s, err := OpenFileWrapped(path, 64, func(f storage.File) storage.File {
			inj = storage.NewFaultInjector(f, 1)
			return inj
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })

		qv := queryView(t, s)
		// Two rows of one page are views of one frame on the native path,
		// and the same decode buffer on the other, once a hub row (node 0)
		// has grown it.
		cur := qv.Adj.Cursor()
		cur.Neighbors(0)
		ra := unsafe.SliceData(cur.NeighborIDs(a))
		rb := unsafe.SliceData(cur.NeighborIDs(a + 1))
		cur.Close()
		if (ra == rb) == le {
			t.Fatalf("%s: rows %d and %d share memory: %v", tag, a, a+1, ra == rb)
		}
		if err := qv.Err(); err != nil {
			t.Fatalf("%s: clean reads latched %v", tag, err)
		}

		if le && !raceEnabled { // the race detector drops sync.Pool entries
			warm := queryView(t, s).Adj
			if allocs := testing.AllocsPerRun(5, func() { sweepAll(warm) }); allocs != 0 {
				t.Errorf("%s: warm sweep allocated %.1f times per run", tag, allocs)
			}
		}

		// Two clean window reads, then a checksum failure on every attempt
		// of the third: the offset table is built, so all are sweep windows.
		inj.Script(storage.FaultSlow, storage.FaultSlow,
			storage.FaultFlip, storage.FaultFlip, storage.FaultFlip, storage.FaultFlip)
		failed := queryView(t, s)
		emitted := graph.NodeID(0)
		err = failed.Adj.SweepEdges(0, n, func(u graph.NodeID, nbrs []graph.NodeID, w []float64) bool {
			requireRow(t, o, u, nbrs, w, true)
			emitted++
			return true
		})
		if qc := failed.Counts(); err == nil || qc.Faults != 1 || failed.Err() == nil {
			t.Fatalf("%s: faulted window returned %v and latched %d faults, want exactly 1", tag, err, qc.Faults)
		}
		if emitted == 0 || emitted >= n {
			t.Fatalf("%s: %d of %d rows emitted: the fault was not inside the sweep", tag, emitted, n)
		}
		healed := queryView(t, s)
		if err := errors.Join(o.CheckSweep(healed.Adj, 0, n), healed.Err()); err != nil {
			t.Fatalf("%s: sweep after the fault latched %v", tag, err)
		}
	}
}
