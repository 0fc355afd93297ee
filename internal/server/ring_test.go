package server_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// page is what a reader of r sees for (since, limit): the positions Span
// picks, walked with Chunks, which must yield exactly that many entries.
func page[D interface{ LogSeq() uint64 }](t *testing.T, r *server.Ring[D], since uint64, limit int) []D {
	t.Helper()
	lo, hi := r.Span(since, limit)
	out := []D{}
	for c := range r.Chunks(lo, hi) {
		out = append(out, c...)
	}
	if len(out) != hi-lo {
		t.Errorf("Span(%d, %d) = [%d, %d), Chunks yield %d entries", since, limit, lo, hi, len(out))
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
			if got := seqsOf(page(t, &r, tc.since, tc.limit)); !slices.Equal(got, tc.want) {
				t.Errorf("page(%d, %d) = %v, want %v", tc.since, tc.limit, got, tc.want)
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
			if want := seqsOf(page(t, &r, 0, 0)); !slices.Equal(walked, want) {
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

// TestRingMatchesModel checks the ring against a plain slice holding the
// last capacity seqs, at capacities either side of the block size and
// spanning several blocks: seeded bursts of appends, each followed by
// pages at cursors below, at, inside and past the retained entries and
// limits that cross block seams, then Oldest, Len and Each.
func TestRingMatchesModel(t *testing.T) {
	const block = 4096
	for _, capacity := range []int{1, 3, block - 1, block, block + 1, 3*block + 5} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			r := server.NewRing[server.Decision](capacity)
			var model []uint64
			seq := uint64(0)
			for round := 0; seq < uint64(4*capacity+20); round++ {
				for range 1 + rng.Intn(capacity/2+2) {
					seq++
					r.Append(server.Decision{Seq: seq, JobID: int(seq)})
					model = append(model, seq)
					if len(model) > capacity {
						model = model[1:]
					}
				}
				oldest := model[0]
				mid := oldest + uint64(rng.Intn(len(model)))
				for _, since := range []uint64{0, oldest - 1, oldest, mid, seq - 1, seq, seq + 5} {
					for _, limit := range []int{0, 1, 1 + rng.Intn(len(model)), block + 1} {
						want := model[sort.Search(len(model), func(i int) bool { return model[i] > since }):]
						if limit > 0 && len(want) > limit {
							want = want[:limit]
						}
						if got := seqsOf(page(t, &r, since, limit)); !slices.Equal(got, want) {
							t.Fatalf("round %d: page(%d, %d) = %d entries from %v, want %d from %v",
								round, since, limit, len(got), head(got), len(want), head(want))
						}
					}
				}
				if r.Oldest() != oldest || r.Len() != len(model) {
					t.Fatalf("round %d: Oldest %d Len %d, want %d and %d", round, r.Oldest(), r.Len(), oldest, len(model))
				}
				var walked []uint64
				r.Each(func(d server.Decision) { walked = append(walked, d.Seq) })
				if !slices.Equal(walked, model) {
					t.Fatalf("round %d: Each walks %d entries from %v, want %d from %v", round, len(walked), head(walked), len(model), head(model))
				}
			}
		})
	}
}

// head is a failure message's view of a long seq list.
func head(s []uint64) []uint64 { return s[:min(len(s), 3)] }

// TestRingFullAppendAllocatesNothing: a full ring evicts into the block it
// reuses, so steady-state logging costs no allocation.
func TestRingFullAppendAllocatesNothing(t *testing.T) {
	for _, capacity := range []int{1, 4096, 65536} {
		r := server.NewRing[server.Decision](capacity)
		seq := uint64(0)
		appendOne := func() {
			seq++
			r.Append(server.Decision{Seq: seq})
		}
		for range 2*capacity + 1 {
			appendOne()
		}
		if allocs := testing.AllocsPerRun(2*capacity+100, appendOne); allocs != 0 {
			t.Errorf("capacity %d: Append on a full ring allocates %.2f per call", capacity, allocs)
		}
	}
}

// BenchmarkRingAppend times a shard's decision log growing from empty to
// 100k entries (one op is the whole growth) and a full 65536-entry ring's
// steady-state Append (one op is one append).
func BenchmarkRingAppend(b *testing.B) {
	b.Run("grow=100k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			r := server.NewRing[server.Decision](100_000)
			for s := range uint64(100_000) {
				r.Append(server.Decision{Seq: s + 1})
			}
		}
	})
	b.Run("full=65536", func(b *testing.B) {
		r := server.NewRing[server.Decision](65536)
		seq := uint64(0)
		for range 2 * 65536 {
			seq++
			r.Append(server.Decision{Seq: seq})
		}
		b.ReportAllocs()
		for b.Loop() {
			seq++
			r.Append(server.Decision{Seq: seq})
		}
	})
}
