package main

import "testing"

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1: covered once
		{ID: 3, Parent: 2, Start: 35, End: 45},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 30 - 10, 10, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], want[i])
		}
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}
