package server

import (
	"iter"
	"sort"

	"waterwise/internal/blocklog"
)

// Ring is a bounded decision log: entries are appended in increasing
// LogSeq order and, at capacity, each append evicts the oldest. A shard's
// decision log and the service's merged one (over decRecord and
// mergedRecord) are both Rings, so cursor semantics have one
// implementation. Entries live in blocklog blocks of up to
// blocklog.BlockSize: growing never copies a logged decision, and a full
// ring reuses the block its evictions empty. Not synchronized: the owner's
// lock guards it.
type Ring[D interface{ LogSeq() uint64 }] struct {
	log blocklog.Log[D]
	max int
}

// NewRing returns an empty ring holding at most capacity entries.
func NewRing[D interface{ LogSeq() uint64 }](capacity int) Ring[D] {
	return Ring[D]{log: blocklog.New[D](min(capacity, blocklog.BlockSize), 0), max: capacity}
}

// Len reports how many entries the ring holds.
func (r *Ring[D]) Len() int { return r.log.Len() }

// Append adds d as the newest entry, evicting the oldest at capacity.
func (r *Ring[D]) Append(d D) {
	if r.log.Len() >= r.max {
		r.log.DropOldest(1)
	}
	r.log.Append(d)
}

// Oldest is the sequence number of the oldest retained entry (0 while
// empty); a reader whose cursor lies below Oldest-1 has lost entries.
func (r *Ring[D]) Oldest() uint64 {
	if r.log.Len() == 0 {
		return 0
	}
	return r.log.At(0).LogSeq()
}

// Span is where a page of up to limit entries with LogSeq > since lies
// (limit <= 0 means all): positions [lo, hi) counted from the oldest entry,
// for Chunks. The first entry past the cursor is found by binary search,
// not a scan: polling a full ring is the serving layer's read hot path.
func (r *Ring[D]) Span(since uint64, limit int) (lo, hi int) {
	n := r.log.Len()
	lo = sort.Search(n, func(i int) bool { return r.log.At(i).LogSeq() > since })
	hi = n
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	return lo, hi
}

// Chunks yields the entries at positions [lo, hi), oldest first, as
// slices of the ring's own blocks, valid until the next Append.
func (r *Ring[D]) Chunks(lo, hi int) iter.Seq[[]D] { return r.log.Chunks(lo, hi) }

// appendPage appends every entry with LogSeq > since to dst.
func (r *Ring[D]) appendPage(dst []D, since uint64) []D {
	lo, hi := r.Span(since, 0)
	return r.log.AppendRange(dst, lo, hi)
}

// Each calls fn on every entry, oldest first.
func (r *Ring[D]) Each(fn func(D)) {
	for c := range r.log.Chunks(0, r.log.Len()) {
		for _, d := range c {
			fn(d)
		}
	}
}
