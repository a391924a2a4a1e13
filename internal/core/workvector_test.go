package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/obs"
)

// TestExtractWorkVectorPaged pins the I/O work of two paged extractions
// as exact counts: the rows and pins of their row cursors, the pool
// misses, and the file reads and pages of their sweeps. On a fixed
// fixture, pool and request sequence the counts are deterministic, so a
// change that is meant to cut CPU per edge, not I/O, must leave every one
// of them where it is; a change that moves one re-records it here and
// says why.
func TestExtractWorkVectorPaged(t *testing.T) {
	ds := dblp.SmallFixture()
	mem, err := BuildEngine(ds.Graph, BuildConfig{K: 3, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "work.gtree")
	if err := mem.SaveTree(path, 256); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenEngine(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sources := twoHopSources(t)
	type vector struct{ rows, pins, misses, sweepReads, sweepPages int64 }
	for _, c := range []struct {
		name string
		k    int
		want vector
	}{
		{"one source", 1, vector{rows: 38267, pins: 26212, misses: 24787, sweepReads: 1534, sweepPages: 148323}},
		{"two sources", 2, vector{rows: 61760, pins: 33794, misses: 31667, sweepReads: 1526, sweepPages: 147368}},
	} {
		tr := obs.NewTrace("work-vector")
		if _, err := eng.ExtractTraced(context.Background(), tr, sources[:c.k], extract.Options{Budget: 20}); err != nil {
			t.Fatal(err)
		}
		got := vector{
			rows:       tr.CountValue("pool.cursor.rows"),
			pins:       tr.CountValue("pool.cursor.pins"),
			misses:     tr.CountValue("pool.misses"),
			sweepReads: tr.CountValue("sweep.reads"),
			sweepPages: tr.CountValue("sweep.pages"),
		}
		if got != c.want {
			t.Errorf("%s: work vector %+v, want %+v", c.name, got, c.want)
		}
	}
}
