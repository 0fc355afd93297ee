package server_test

import (
	"slices"
	"testing"

	"waterwise/internal/fleet"
	"waterwise/internal/server"
)

// seqsOf projects a page or walk onto its sequence numbers.
func seqsOf[D interface{ LogSeq() uint64 }](ds []D) []uint64 {
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.LogSeq()
	}
	return out
}

// testRing runs the ring's one table over an element type: what a reader
// sees for every cursor and limit, below capacity and after wrapping.
func testRing[D interface{ LogSeq() uint64 }](t *testing.T, mk func(seq uint64) D) {
	seq := func(lo, hi uint64) []uint64 { // lo..hi inclusive, empty when lo > hi
		out := []uint64{}
		for s := lo; s <= hi; s++ {
			out = append(out, s)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		capacity int
		appended uint64 // seqs 1..appended
		since    uint64
		limit    int
		want     []uint64
		oldest   uint64
	}{
		{"empty", 4, 0, 0, 0, seq(1, 0), 0},
		{"below capacity, all", 4, 3, 0, 0, seq(1, 3), 1},
		{"below capacity, mid cursor", 4, 3, 2, 0, seq(3, 3), 1},
		{"exactly full", 4, 4, 0, 0, seq(1, 4), 1},
		{"wrapped once, all", 4, 6, 0, 0, seq(3, 6), 3},
		{"wrapped, since below oldest", 4, 6, 1, 0, seq(3, 6), 3},
		{"wrapped, since just below oldest", 4, 6, 2, 0, seq(3, 6), 3},
		{"wrapped, since mid", 4, 6, 4, 0, seq(5, 6), 3},
		{"wrapped, since at newest", 4, 6, 6, 0, seq(1, 0), 3},
		{"wrapped, since beyond newest", 4, 6, 99, 0, seq(1, 0), 3},
		{"wrapped, limit 1", 4, 6, 0, 1, seq(3, 3), 3},
		{"wrapped, limit spans the seam", 4, 6, 3, 2, seq(4, 5), 3},
		{"wrapped, limit above count", 4, 6, 4, 10, seq(5, 6), 3},
		{"wrapped many times", 3, 20, 0, 0, seq(18, 20), 18},
		{"capacity one", 1, 5, 0, 0, seq(5, 5), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := server.NewRing[D](tc.capacity)
			for s := uint64(1); s <= tc.appended; s++ {
				r.Append(mk(s))
			}
			page := r.Page(tc.since, tc.limit)
			if page == nil {
				t.Error("Page returned nil; the HTTP layer needs [] for an empty page")
			}
			if got := seqsOf(page); !slices.Equal(got, tc.want) {
				t.Errorf("Page(%d, %d) = %v, want %v", tc.since, tc.limit, got, tc.want)
			}
			if cap(page) != len(tc.want) {
				t.Errorf("Page allocated %d elements for %d", cap(page), len(tc.want))
			}
			if got := r.Oldest(); got != tc.oldest {
				t.Errorf("Oldest = %d, want %d", got, tc.oldest)
			}
			wantLen := min(int(tc.appended), tc.capacity)
			if r.Len() != wantLen {
				t.Errorf("Len = %d, want %d", r.Len(), wantLen)
			}
			var walked []uint64
			r.Each(func(d D) { walked = append(walked, d.LogSeq()) })
			if want := seqsOf(r.Page(0, 0)); !slices.Equal(walked, want) {
				t.Errorf("Each walks %v, want oldest-first %v", walked, want)
			}
		})
	}
}

// TestRing runs the table for both logs built on the ring: a server's
// decision log and the fleet gateway's merged one.
func TestRing(t *testing.T) {
	t.Run("server.Decision", func(t *testing.T) {
		testRing(t, func(seq uint64) server.Decision { return server.Decision{Seq: seq, JobID: int(seq)} })
	})
	t.Run("fleet.Decision", func(t *testing.T) {
		testRing(t, func(seq uint64) fleet.Decision {
			return fleet.Decision{Decision: server.Decision{Seq: seq}, Shard: int(seq % 2), ShardSeq: seq / 2}
		})
	})
}
