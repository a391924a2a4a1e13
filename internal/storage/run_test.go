package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestRunRoundTrip writes runs of several strides and counts and reads
// every possible range back straight from the file: one page read per
// page the range touches, through one reused scratch, and no pool frame
// ever pinned.
func TestRunRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.gmine")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	type run struct {
		stride, count int
		first         PageID
		data          []byte
	}
	runs := []run{{4, 0, 0, nil}, {4, 1, 0, nil}, {4, 63, 0, nil}, {8, 200, 0, nil}, {3, 100, 0, nil}}
	for i := range runs {
		r := &runs[i]
		r.data = make([]byte, r.stride*r.count)
		for j := range r.data {
			r.data[j] = byte(i*31 + j)
		}
		if r.first, err = WriteRun(p, r.data, r.stride); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(p, 2)
	for i := range runs {
		r := &runs[i]
		rd, err := NewRunReader(pool, r.first, r.stride, r.count)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var scratch []byte
		per := rd.PerPage()
		for lo := 0; lo <= r.count; lo += 1 + r.count/7 {
			for hi := lo; hi <= r.count; hi += 1 + r.count/5 {
				dst := make([]byte, (hi-lo)*r.stride)
				pages, err := rd.Read(lo, hi, dst, &scratch)
				if err != nil {
					t.Fatalf("run %d [%d,%d): %v", i, lo, hi, err)
				}
				if !bytes.Equal(dst, r.data[lo*r.stride:hi*r.stride]) {
					t.Fatalf("run %d [%d,%d): data mismatch", i, lo, hi)
				}
				want := 0
				if hi > lo {
					want = (hi-1)/per - lo/per + 1
				}
				if pages != want {
					t.Fatalf("run %d [%d,%d): read %d pages, want %d", i, lo, hi, pages, want)
				}
			}
		}
	}
	if st := pool.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("run reads pinned through the pool: %+v", st)
	}
}

// TestRunReaderBounds checks constructor and range validation.
func TestRunReaderBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rb.gmine")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	data := make([]byte, 4*100)
	first, err := WriteRun(p, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(p, 4)
	// Claiming more elements than the file holds must fail at construction.
	if _, err := NewRunReader(pool, first, 4, 1<<20); err == nil {
		t.Fatal("oversized run accepted")
	}
	if _, err := NewRunReader(pool, first, 0, 100); err == nil {
		t.Fatal("zero stride accepted")
	}
	rd, err := NewRunReader(pool, first, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	if _, err := rd.Read(90, 101, make([]byte, 11*4), &scratch); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := rd.Read(0, 10, make([]byte, 4), &scratch); err == nil {
		t.Fatal("short dst accepted")
	}
}

// TestRunReadRangeErrorTyped pins the bounds gate of RunReader.Read: each
// malformed range — negative lo, inverted lo>hi, hi past the run — fails
// with a *RangeError carrying the offending values, before any page math
// could turn it into a wild read, and without reading a page.
func TestRunReadRangeErrorTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.gmine")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first, err := WriteRun(p, make([]byte, 4*50), 4)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(p, 4)
	rd, err := NewRunReader(pool, first, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4*200)
	var scratch []byte
	cases := []struct {
		name   string
		lo, hi int
	}{
		{"negative lo", -1, 10},
		{"lo greater than hi", 20, 10},
		{"hi past count", 0, 51},
		{"both past count", 60, 70},
		{"negative range", -5, -2},
	}
	for _, tc := range cases {
		pages, err := rd.Read(tc.lo, tc.hi, dst, &scratch)
		if err == nil {
			t.Fatalf("%s: Read(%d,%d) accepted", tc.name, tc.lo, tc.hi)
		}
		var re *RangeError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %T %q is not a *RangeError", tc.name, err, err)
		}
		if re.Lo != tc.lo || re.Hi != tc.hi || re.Count != 50 {
			t.Fatalf("%s: RangeError{%d,%d,%d}, want {%d,%d,50}", tc.name, re.Lo, re.Hi, re.Count, tc.lo, tc.hi)
		}
		if pages != 0 || scratch != nil {
			t.Fatalf("%s: rejected range read %d pages", tc.name, pages)
		}
	}
	// A valid range on the same reader still works (the gate is not
	// latched state).
	if _, err := rd.Read(0, 50, dst[:50*4], &scratch); err != nil {
		t.Fatalf("valid read after rejections: %v", err)
	}
}
