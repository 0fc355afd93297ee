package server

import "sort"

// Ring is a bounded decision log: entries are appended in increasing
// LogSeq order and, at capacity, each append evicts the oldest. A shard's
// decision log and the service's merged one (over MergedDecision, which
// embeds Decision) are both Rings, so cursor semantics have one
// implementation. Not synchronized: the owner's lock guards it.
type Ring[D interface{ LogSeq() uint64 }] struct {
	buf  []D
	head int // index of the oldest entry once the ring has wrapped
	max  int
}

// NewRing returns an empty ring holding at most capacity entries.
func NewRing[D interface{ LogSeq() uint64 }](capacity int) Ring[D] {
	return Ring[D]{max: capacity}
}

// at maps a position counted from the oldest entry to its slot.
func (r *Ring[D]) at(i int) int { return (r.head + i) % len(r.buf) }

// Len reports how many entries the ring holds.
func (r *Ring[D]) Len() int { return len(r.buf) }

// Append adds d as the newest entry, evicting the oldest at capacity.
func (r *Ring[D]) Append(d D) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, d)
		return
	}
	r.buf[r.head] = d
	r.head = r.at(1)
}

// Oldest is the sequence number of the oldest retained entry (0 while
// empty); a reader whose cursor lies below Oldest-1 has lost entries.
func (r *Ring[D]) Oldest() uint64 {
	if len(r.buf) == 0 {
		return 0
	}
	return r.buf[r.head].LogSeq()
}

// Page returns up to limit entries with LogSeq > since, oldest first
// (limit <= 0 means all), as a fresh non-nil slice of exactly that many.
// The first entry past the cursor is found by binary search, not a scan:
// polling a full ring is the serving layer's read hot path.
func (r *Ring[D]) Page(since uint64, limit int) []D {
	n := len(r.buf)
	lo := sort.Search(n, func(i int) bool { return r.buf[r.at(i)].LogSeq() > since })
	count := n - lo
	if limit > 0 && count > limit {
		count = limit
	}
	out := make([]D, count)
	if count > 0 {
		first := copy(out, r.buf[r.at(lo):])
		copy(out[first:], r.buf) // the part that wrapped past the end of buf
	}
	return out
}

// Each calls fn on every entry, oldest first.
func (r *Ring[D]) Each(fn func(D)) {
	for i := range r.buf {
		fn(r.buf[r.at(i)])
	}
}
