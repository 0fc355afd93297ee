package blocklog

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLogMatchesSlice checks a log against a plain slice under seeded
// random appends and drops, with and without a first-block hint: At,
// AppendRange over every block seam, and Slice.
func TestLogMatchesSlice(t *testing.T) {
	for _, tc := range []struct{ size, first int }{{1, 0}, {3, 0}, {4, 0}, {4, 10}, {7, 2}} {
		rng := rand.New(rand.NewSource(int64(tc.size*100 + tc.first)))
		l := New[int](tc.size, tc.first)
		var model []int
		next := 0
		for step := range 400 {
			if rng.Intn(3) == 0 {
				k := rng.Intn(len(model) + 2)
				l.DropOldest(k)
				model = model[min(k, len(model)):]
			} else {
				for range rng.Intn(2 * tc.size) {
					l.Append(next)
					model = append(model, next)
					next++
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("size %d first %d step %d: Len %d, want %d", tc.size, tc.first, step, l.Len(), len(model))
			}
			for i, v := range model {
				if got := l.At(i); got != v {
					t.Fatalf("size %d first %d step %d: At(%d) = %d, want %d", tc.size, tc.first, step, i, got, v)
				}
			}
			from := rng.Intn(len(model) + 1)
			to := from + rng.Intn(len(model)-from+1)
			if got := l.AppendRange([]int{-1}, from, to); !slices.Equal(got, append([]int{-1}, model[from:to]...)) {
				t.Fatalf("size %d first %d step %d: AppendRange(%d, %d) = %v, want %v", tc.size, tc.first, step, from, to, got[1:], model[from:to])
			}
			if got := l.Slice(); !slices.Equal(got, model) || len(model) == 0 && got != nil {
				t.Fatalf("size %d first %d step %d: Slice = %v, want %v", tc.size, tc.first, step, got, model)
			}
		}
	}
}

// TestSliceOfOneBlockIsTheBlock pins the no-copy case Result relies on: a
// log that fits its first block hands that block out.
func TestSliceOfOneBlockIsTheBlock(t *testing.T) {
	l := New[int](BlockSize, 3*BlockSize)
	for i := range 2 * BlockSize {
		l.Append(i)
	}
	s := l.Slice()
	s[0] = -1
	if l.At(0) != -1 {
		t.Fatal("Slice of a one-block log is a copy")
	}
	if cap(s) != len(s) {
		t.Fatalf("Slice cap %d beyond its %d entries: appends would overwrite the log", cap(s), len(s))
	}
}
