package server

import (
	"sort"

	"waterwise/internal/blocklog"
)

// Ring is a bounded decision log: entries are appended in increasing
// LogSeq order and, at capacity, each append evicts the oldest. A shard's
// decision log and the service's merged one (over MergedDecision, which
// embeds Decision) are both Rings, so cursor semantics have one
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

// span is where Page(since, limit) reads: positions [lo, hi) counted from
// the oldest entry. The first entry past the cursor is found by binary
// search, not a scan: polling a full ring is the serving layer's read hot
// path.
func (r *Ring[D]) span(since uint64, limit int) (lo, hi int) {
	n := r.log.Len()
	lo = sort.Search(n, func(i int) bool { return r.log.At(i).LogSeq() > since })
	hi = n
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	return lo, hi
}

// Page returns up to limit entries with LogSeq > since, oldest first
// (limit <= 0 means all), as a fresh non-nil slice of exactly that many.
func (r *Ring[D]) Page(since uint64, limit int) []D {
	lo, hi := r.span(since, limit)
	return r.log.AppendRange(make([]D, 0, hi-lo), lo, hi)
}

// appendPage is Page(since, 0) appended to dst instead of a fresh slice.
func (r *Ring[D]) appendPage(dst []D, since uint64) []D {
	lo, hi := r.span(since, 0)
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
