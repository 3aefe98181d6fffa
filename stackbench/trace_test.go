package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		// Two overlapping children (a scatter) count once, and a child
		// running past its parent is clipped to the parent.
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},
		{id: 4, parent: 1, start: 90, end: 120},
		// A grandchild is its own parent's child, not the root's.
		{id: 5, parent: 3, start: 25, end: 35},
		// An orphan (parent not recorded) is a root.
		{id: 6, parent: 99, start: 0, end: 7},
	}
	want := []int64{50, 20, 20, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].id, got[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {4, 6}}, 4},
		{0, 10, [][2]int64{{-5, 3}, {8, 20}}, 5},
		{0, 10, [][2]int64{{12, 20}}, 0},
		{0, 10, [][2]int64{{5, 9}, {1, 2}, {1, 6}}, 8},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}
