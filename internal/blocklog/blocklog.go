// Package blocklog is an append-only log stored in fixed-size blocks.
// Appending never moves an entry already logged: a full block is followed
// by a fresh one instead of being doubled and copied, so a long log costs
// one allocation per block and no re-zeroing of what it already holds.
// Dropping the oldest entries frees whole blocks, and the log keeps one
// freed block to reuse, so a log trimmed as fast as it grows (a bounded
// ring) allocates nothing in steady state.
package blocklog

import (
	"iter"
	"slices"
)

// BlockSize is the block size the serving logs use: 4096 entries — 295 KB
// of a shard ring's 72-byte decision records, 328 KB of the merged ring's
// 80-byte ones, 754 KB of outcomes — so a log's unused tail is under 1 MB
// while a million-entry log is a few hundred blocks.
const BlockSize = 4096

// Log is an append-only sequence of entries, indexed from the oldest.
// The zero value is not usable; call New. Not synchronized.
type Log[T any] struct {
	// blocks are all allocated at full length. Only blocks[0] may differ
	// from size: the block a size hint allocated.
	blocks [][]T
	size   int
	off    int // position of the oldest entry in blocks[0]
	tail   int // entries written to the last block
	n      int
	spare  []T // one emptied block, reused by the next block Append needs
}

// New returns an empty log of size-entry blocks (at least one entry).
// first is a size hint: when it is larger than size, New allocates a
// first block of first entries, so a log whose length is known up front
// is one contiguous block.
func New[T any](size, first int) Log[T] {
	l := Log[T]{size: max(size, 1)}
	if first > l.size {
		l.blocks = [][]T{make([]T, first)}
	}
	return l
}

// Len reports how many entries the log holds.
func (l *Log[T]) Len() int { return l.n }

// Append adds v as the newest entry.
func (l *Log[T]) Append(v T) {
	last := len(l.blocks) - 1
	if last < 0 || l.tail == len(l.blocks[last]) {
		l.addBlock()
		last++
	}
	l.blocks[last][l.tail] = v
	l.tail++
	l.n++
}

// addBlock starts a new last block: the spare block if there is one,
// else a fresh one.
func (l *Log[T]) addBlock() {
	b := l.spare
	if b == nil {
		b = make([]T, l.size)
	}
	l.spare = nil
	l.blocks = append(l.blocks, b)
	l.tail = 0
}

// At returns the entry at position i, counted from the oldest (0 <= i < Len).
func (l *Log[T]) At(i int) T {
	i += l.off
	if b0 := len(l.blocks[0]); i >= b0 {
		i -= b0
		return l.blocks[1+i/l.size][i%l.size]
	}
	return l.blocks[0][i]
}

// DropOldest removes the k oldest entries (all of them if k >= Len). A
// block left empty is released, the last one released kept for reuse.
func (l *Log[T]) DropOldest(k int) {
	if k < l.n && l.off+k < len(l.blocks[0]) {
		l.n -= k
		l.off += k
		return
	}
	l.dropBlocks(k)
}

// dropBlocks is DropOldest when it empties at least one block.
func (l *Log[T]) dropBlocks(k int) {
	if k = min(k, l.n); k == 0 {
		return
	}
	l.n -= k
	l.off += k
	drop := len(l.blocks)
	if l.n > 0 {
		for drop = 0; l.off >= len(l.blocks[drop]); drop++ {
			l.off -= len(l.blocks[drop])
		}
	}
	if drop == 0 {
		return
	}
	if b := l.blocks[drop-1]; len(b) == l.size {
		l.spare = b
	}
	kept := copy(l.blocks, l.blocks[drop:])
	clear(l.blocks[kept:])
	l.blocks = l.blocks[:kept]
	if kept == 0 {
		l.off, l.tail = 0, 0
	}
}

// AppendRange appends the entries at positions [from, to) to dst, oldest
// first, and returns the extended slice. dst grows at most once, however
// many blocks the range spans.
func (l *Log[T]) AppendRange(dst []T, from, to int) []T {
	dst = slices.Grow(dst, to-from)
	for c := range l.Chunks(from, to) {
		dst = append(dst, c...)
	}
	return dst
}

// Chunks yields the entries at positions [from, to), oldest first, as
// slices of the log's own blocks: one per block the range touches, no
// copy. A chunk is valid until the log next drops entries.
func (l *Log[T]) Chunks(from, to int) iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		from, to := from+l.off, to+l.off
		for _, b := range l.blocks {
			if to <= 0 {
				return
			}
			if from < len(b) && !yield(b[max(from, 0):min(to, len(b))]) {
				return
			}
			from, to = from-len(b), to-len(b)
		}
	}
}

// Slice returns every entry as one slice, oldest first. When they all lie
// in one block, that is the block itself, not a copy: writes through it
// change the log. Otherwise it is a fresh slice of exactly Len entries
// (nil for an empty log).
func (l *Log[T]) Slice() []T {
	switch end := l.off + l.n; {
	case l.n == 0:
		return nil
	case len(l.blocks) == 1:
		return l.blocks[0][l.off:end:end]
	}
	return l.AppendRange(make([]T, 0, l.n), 0, l.n)
}
