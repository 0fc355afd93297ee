package core

import (
	"cmp"
	"math"
	"slices"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/workload"
)

// The slack manager (Algorithm 1, lines 5-7) keeps the limit jobs with the
// least remaining slack, per the urgency score of Eq. 14:
//
//	Urgency_m = TOL%·t_m − L̄_m − (T_now − T_start_m)
//
// i.e. allowed extra service time, minus typical migration cost, minus time
// already spent waiting. Ascending order = most urgent first, ties in queue
// order. The first two terms do not change while the job waits, so the
// first round that ranks a job keeps TOL%·t_m − L̄_m in its PendingJob.Slack
// (see cluster.SlackMemo for when that stays valid), and every round scores
// it as that base minus the wait: the same float operations, in the same
// order, as evaluating Eq. 14 afresh.
//
// Rounds that rank run back to back while demand exceeds capacity, and
// between two of them the queue changes only at the edges: the decided jobs
// leave, arrivals join at the tail. So the ranking persists across them as
// urgencyIndex, a min-heap keyed by Base + (T_start − epoch), which differs
// from the score only by the round's T_now − epoch — the same for every job
// — and so orders the jobs as the score does, up to rounding. Jobs with the
// same Base and T_start (one home and benchmark, admitted at one instant)
// score alike in every round, so they share one heap node, a tie class,
// with its jobs in queue order behind it. A round costs
// O((arrivals + picked) · log backlog), not O(backlog), however large the
// classes.

// urgentJob is one queued job as a round ranks it: its Eq. 14 score this
// round and its ordinal, which increases along the queue and breaks ties in
// queue order. m and c locate it in the index: its slot in members and its
// class in popped.
type urgentJob struct {
	pj  *cluster.PendingJob
	u   float64
	pos int
	m   int32
	c   int32
}

// cmpUrgent is the slack manager's total order: ascending urgency score,
// ties by queue position — what a stable sort by score alone yields.
func cmpUrgent(a, b urgentJob) int {
	switch {
	case a.u < b.u:
		return -1
	case a.u > b.u:
		return 1
	}
	return a.pos - b.pos
}

// member is one indexed job: next links its tie class in queue order (−1
// after the last).
type member struct {
	pj   *cluster.PendingJob
	pos  int
	next int32
}

// tieClass is one heap node: the jobs of one exact (Base, T_start), which
// share key, head first. gone counts the members a round decided, while
// the class is popped.
type tieClass struct {
	key           float64
	head, n, gone int32
}

// freshJob is an arrival being grouped into tie classes.
type freshJob struct {
	pj    *cluster.PendingJob
	base  float64
	start int64
	pos   int
}

// lessKey is the heap order: ascending key. Classes whose keys tie are
// all popped in the same round, so their order is immaterial.
func lessKey(a, b *tieClass) bool {
	return a.key < b.key
}

// avgKey names one L̄_m: the mean transfer latency depends only on the
// job's home and its benchmark's package size.
type avgKey struct {
	home  region.ID
	bench string
}

// urgencyIndex is the slack manager's ranking of one Sim's queue, kept
// across the overloaded rounds of that Sim. It mirrors ctx.Jobs[:seen] —
// the queue as the last round left it — and trusts that mirror only after
// checking, in O(1), that the queue still ends where it did: the same
// Context, at least seen jobs, and ctx.Jobs[seen-1] still last. Any other
// change (cluster.Sim's RestorePending and Abandon make new *PendingJob
// values; another Sim has another Context) fails that check, and the
// index is rebuilt from the whole queue. A round that offers the whole
// queue drops the index.
type urgencyIndex struct {
	ctx  *cluster.Context // nil: no index
	heap []tieClass
	// members holds every indexed job, in slots its classes link; free
	// lists the slots decided jobs left.
	members []member
	free    []int32
	seen    int
	// last is ctx.Jobs[seen-1] as settle left it; nil while a round's picks
	// are out of the heap, so a pick without a settle rebuilds.
	last *cluster.PendingJob
	// next is the next ordinal to hand out. epoch is the instant keys are
	// measured from, and bMax and fMax bound |Base| and |T_start − epoch|
	// over every job pushed since the rebuild: eps reads them.
	next       int
	epoch      int64
	bMax, fMax float64
	avgLat     map[avgKey]float64
	// fresh is the scratch that groups arrivals into classes. classes holds
	// this round's popped classes; popped their jobs that can be picked,
	// sorted, the picks first; gone is settle's scratch.
	fresh   []freshJob
	classes []tieClass
	popped  []urgentJob
	gone    []urgentJob
	picked  []*cluster.PendingJob
	// builds counts rebuilds, so tests can tell the incremental path ran.
	builds int
}

// pick returns the limit most urgent jobs of ctx.Jobs (limit <
// len(ctx.Jobs)), most urgent first: exactly what scoring every job and
// stable-sorting by score would give. The returned slice is valid until
// the next pick; settle must follow once the round's decisions are known.
func (x *urgencyIndex) pick(ctx *cluster.Context, ids []region.ID, limit int) []*cluster.PendingJob {
	if x.ctx == ctx && x.last != nil && len(ctx.Jobs) >= x.seen && ctx.Jobs[x.seen-1] == x.last {
		x.add(ctx, ids, ctx.Jobs[x.seen:], false)
	} else {
		x.rebuild(ctx, ids)
	}
	x.seen, x.last = len(ctx.Jobs), nil

	// The top classes by key until they hold limit jobs, then every class
	// whose key is within eps of the last of them: no job left in the heap
	// can outrank those limit by score.
	now := ctx.Now.UnixNano()
	for n := 0; n < limit; {
		c := x.pop()
		n += int(c.n)
		x.classes = append(x.classes, c)
	}
	bound := x.classes[len(x.classes)-1].key + x.eps(now)
	for len(x.heap) > 0 && x.heap[0].key <= bound {
		x.classes = append(x.classes, x.pop())
	}
	// A class's jobs score alike and keep queue order, so only its first
	// limit can be picked.
	for ci, c := range x.classes {
		pj := x.members[c.head].pj
		u := pj.Slack.Base - float64(now-pj.FirstSeen.UnixNano())
		for k, m := 0, c.head; k < limit && m >= 0; k++ {
			mb := &x.members[m]
			x.popped = append(x.popped, urgentJob{pj: mb.pj, u: u, pos: mb.pos, m: m, c: int32(ci)})
			m = mb.next
		}
	}
	slices.SortFunc(x.popped, cmpUrgent)
	x.picked = x.picked[:0]
	for _, p := range x.popped[:limit] {
		x.picked = append(x.picked, p.pj)
	}
	return x.picked
}

// eps bounds how far apart two jobs' keys can be while their scores, as
// rounded this round, still rank the other way. Every key and score is one
// int64 conversion and one addition away from its exact value, each off by
// at most 2⁻⁵³ of its magnitude, and |T_now − T_start| ≤ |now − epoch| +
// |T_start − epoch|; so key − score differs from now − epoch by at most
// 2·2⁻⁵³·(|Base| + 2|T_start − epoch| + |now − epoch|) per job. eps is twice
// that for a pair, doubled again to cover rounding the bound itself.
func (x *urgencyIndex) eps(now int64) float64 {
	return 0x1p-50 * (x.bMax + 2*x.fMax + math.Abs(float64(now-x.epoch)))
}

// settle ends a round that picked: the picks the round decided (dec, in the
// order of the picks, as the controller returns them) leave the index, and
// every other popped job goes back. Then it notes where the queue will end
// once the Sim drops the decided jobs. A failed round, or decisions that are
// not picks, drop the index instead.
func (x *urgencyIndex) settle(ctx *cluster.Context, dec []cluster.Decision, err error) {
	limit := len(x.picked)
	x.gone = x.gone[:0]
	d := 0
	for i, p := range x.popped {
		if i == limit || d == len(dec) {
			break
		}
		if dec[d].Job == p.pj.Job {
			x.gone = append(x.gone, p)
			x.members[p.m].pj = nil
			x.classes[p.c].gone++
			d++
		}
	}
	clear(x.popped)
	x.popped = x.popped[:0]
	if err != nil || d != len(dec) {
		x.drop()
		return
	}
	for i := range x.classes {
		c := &x.classes[i]
		if c.gone > 0 {
			x.unlinkGone(c)
		}
		if c.n > 0 {
			x.push(*c)
		}
	}
	x.classes = x.classes[:0]
	// The decided jobs at the queue's tail are the decided jobs with the
	// largest ordinals, in order: walk both back to the last survivor.
	slices.SortFunc(x.gone, func(a, b urgentJob) int { return b.pos - a.pos })
	i := len(ctx.Jobs) - 1
	for _, g := range x.gone {
		if ctx.Jobs[i] != g.pj {
			break
		}
		i--
	}
	x.seen, x.last = len(ctx.Jobs)-len(x.gone), ctx.Jobs[i]
	clear(x.gone)
}

// unlinkGone frees the members of c that settle marked decided (pj nil).
// Picks from a class are a prefix of it, so the walk stops within limit.
func (x *urgencyIndex) unlinkGone(c *tieClass) {
	prev := int32(-1)
	for m := c.head; c.gone > 0; {
		next := x.members[m].next
		if x.members[m].pj == nil {
			if prev < 0 {
				c.head = next
			} else {
				x.members[prev].next = next
			}
			x.free = append(x.free, m)
			c.gone--
			c.n--
		} else {
			prev = m
		}
		m = next
	}
}

// drop discards the index and every job pointer it holds.
func (x *urgencyIndex) drop() {
	x.ctx, x.last = nil, nil
	x.heap = x.heap[:0]
	clear(x.members)
	x.members, x.free = x.members[:0], x.free[:0]
	x.classes = x.classes[:0]
	clear(x.popped)
	x.popped = x.popped[:0]
	clear(x.picked)
	clear(x.avgLat)
}

// rebuild indexes the whole of ctx.Jobs, with keys measured from now.
func (x *urgencyIndex) rebuild(ctx *cluster.Context, ids []region.ID) {
	x.drop()
	x.builds++
	x.ctx, x.epoch, x.next, x.bMax, x.fMax = ctx, ctx.Now.UnixNano(), 0, 0, 0
	if x.avgLat == nil {
		x.avgLat = make(map[avgKey]float64)
	}
	x.members = slices.Grow(x.members, len(ctx.Jobs))
	x.add(ctx, ids, ctx.Jobs, true)
	for i := len(x.heap)/2 - 1; i >= 0; i-- {
		x.down(i)
	}
}

// add indexes jobs, each given the next ordinal and a member slot, as tie
// classes: pushed on the heap, or appended to it unordered when heapify
// follows. A job's Slack memo is filled first if empty.
func (x *urgencyIndex) add(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob, heapify bool) {
	f := x.fresh[:0]
	for _, pj := range jobs {
		if !pj.Slack.Set {
			job := pj.Job
			k := avgKey{job.Home, job.Benchmark}
			avgLat, ok := x.avgLat[k]
			if !ok {
				avgLat = float64(ctx.Net.AvgLatency(job.Home, ids, workload.PackageMB(job.Benchmark)))
				x.avgLat[k] = avgLat
			}
			pj.Slack = cluster.SlackMemo{Base: ctx.Tolerance*float64(job.EstDuration) - avgLat, Set: true}
		}
		f = append(f, freshJob{pj: pj, base: pj.Slack.Base, start: pj.FirstSeen.UnixNano(), pos: x.next})
		x.next++
	}
	if len(f) > 1 {
		slices.SortFunc(f, func(a, b freshJob) int {
			if c := cmp.Compare(a.base, b.base); c != 0 {
				return c
			}
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			return a.pos - b.pos
		})
	}
	for i := 0; i < len(f); {
		j := f[i]
		since := float64(j.start - x.epoch)
		x.bMax, x.fMax = max(x.bMax, math.Abs(j.base)), max(x.fMax, math.Abs(since))
		c := tieClass{key: j.base + since, head: x.slot(member{pj: j.pj, pos: j.pos, next: -1}), n: 1}
		tail := c.head
		for i++; i < len(f) && f[i].base == j.base && f[i].start == j.start; i++ {
			m := x.slot(member{pj: f[i].pj, pos: f[i].pos, next: -1})
			x.members[tail].next, tail = m, m
			c.n++
		}
		if heapify {
			x.heap = append(x.heap, c)
		} else {
			x.push(c)
		}
	}
	clear(f)
	x.fresh = f[:0]
}

// slot stores mb in a free member slot and returns its index.
func (x *urgencyIndex) slot(mb member) int32 {
	if n := len(x.free); n > 0 {
		m := x.free[n-1]
		x.free = x.free[:n-1]
		x.members[m] = mb
		return m
	}
	x.members = append(x.members, mb)
	return int32(len(x.members) - 1)
}

func (x *urgencyIndex) push(c tieClass) {
	x.heap = append(x.heap, c)
	h := x.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !lessKey(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (x *urgencyIndex) pop() tieClass {
	h := x.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	x.heap = h[:n]
	x.down(0)
	return top
}

// down restores the min-heap order below x.heap[i].
func (x *urgencyIndex) down(i int) {
	h := x.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && lessKey(&h[c+1], &h[c]) {
			c++
		}
		if !lessKey(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
