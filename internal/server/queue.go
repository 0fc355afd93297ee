package server

import (
	"slices"

	"waterwise/internal/trace"
	"waterwise/internal/wire"
)

// queued is one not-yet-due job in a shard's ingest queue, keyed by value:
// its Submit instant (wire.TimeNano's convention) and id are copied out of
// the job, so ordering two entries never dereferences a job.
type queued struct {
	submit int64
	id     int
	job    *trace.Job
}

// before is the queue's order, (Submit, ID) — the order the offline replay
// ingests a sorted trace in. Ids are unique per shard, so it is strict.
func (a *queued) before(b *queued) bool {
	return a.submit < b.submit || a.submit == b.submit && a.id < b.id
}

// queueKeep is the largest backing array a drained queue keeps for reuse:
// a steady stream reuses one small array, and a drained backlog hands its
// large one back to the GC.
const queueKeep = 4096

// ingestQueue holds a shard's accepted jobs whose Submit lies beyond the
// round clock, popped in (Submit, ID) order: a binary min-heap of queued
// values. Not synchronized: the shard's lock guards it.
type ingestQueue struct {
	heap []queued
}

// Len reports how many jobs are queued.
func (q *ingestQueue) Len() int { return len(q.heap) }

// push queues j.
func (q *ingestQueue) push(j *trace.Job) {
	q.heap = append(q.heap, queued{submit: wire.TimeNano(j.Submit), id: j.ID, job: j})
	q.up(len(q.heap) - 1)
}

// peek returns the first job in queue order; the queue must not be empty.
func (q *ingestQueue) peek() *queued { return &q.heap[0] }

// pop removes and returns the first job in queue order; the queue must
// not be empty.
func (q *ingestQueue) pop() *trace.Job {
	j := q.heap[0].job
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = queued{}
	q.heap = q.heap[:last]
	q.down(0)
	if last == 0 && cap(q.heap) > queueKeep {
		q.heap = nil
	}
	return j
}

// sorted returns every queued entry in queue order, as a fresh slice.
func (q *ingestQueue) sorted() []queued {
	out := slices.Clone(q.heap)
	slices.SortFunc(out, func(a, b queued) int {
		switch {
		case a.before(&b):
			return -1
		case b.before(&a):
			return 1
		}
		return 0
	})
	return out
}

// up restores the heap order from position i toward the root.
func (q *ingestQueue) up(i int) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down restores the heap order from position i toward the leaves.
func (q *ingestQueue) down(i int) {
	h := q.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
