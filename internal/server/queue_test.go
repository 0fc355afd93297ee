package server

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// refQueue is the ingest queue's reference: a container/heap over
// *trace.Job in (Submit, ID) order, what the shard queued into before the
// queue held values.
type refQueue []*trace.Job

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	if h[i].Submit.Equal(h[j].Submit) {
		return h[i].ID < h[j].ID
	}
	return h[i].Submit.Before(h[j].Submit)
}
func (h refQueue) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)    { *h = append(*h, x.(*trace.Job)) }
func (h *refQueue) Pop() (it any) { it, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]; return it }

// queueArrivals is a seeded arrival sequence of n jobs with unique ids:
// mostly in (Submit, ID) order, a fraction late by up to an hour, some
// sharing their Submit instant with the job before them.
func queueArrivals(seed int64, n int, late, same float64) []*trace.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*trace.Job, n)
	at := testStart
	for i, id := range rng.Perm(n) {
		if rng.Float64() >= same {
			at = at.Add(time.Duration(1+rng.Intn(90)) * time.Second)
		}
		submit := at
		if rng.Float64() < late {
			submit = at.Add(-time.Duration(rng.Intn(3600)) * time.Second)
		}
		jobs[i] = &trace.Job{ID: id, Submit: submit, Home: region.Zurich, Benchmark: "canneal"}
	}
	return jobs
}

// TestIngestQueueMatchesHeap drives the queue and the reference heap with
// the same seeded arrivals — in order, out of order, with equal Submit
// instants — interleaved with bursts of pops, and requires the same job
// from every pop and the same length throughout.
func TestIngestQueueMatchesHeap(t *testing.T) {
	for _, mix := range []struct {
		late, same float64
	}{{0, 0}, {0.01, 0.1}, {0.3, 0.5}, {1, 0}, {0, 1}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("late=%g/same=%g/seed=%d", mix.late, mix.same, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(-seed))
				var q ingestQueue
				var ref refQueue
				pop := func(k int) {
					for ; k > 0 && ref.Len() > 0; k-- {
						want := heap.Pop(&ref).(*trace.Job)
						if got := q.peek().job; got != want {
							t.Fatalf("peek = job %d, want %d", got.ID, want.ID)
						}
						if got := q.pop(); got != want {
							t.Fatalf("pop = job %d at %v, want %d at %v", got.ID, got.Submit, want.ID, want.Submit)
						}
					}
				}
				for _, j := range queueArrivals(seed, 3000, mix.late, mix.same) {
					q.push(j)
					heap.Push(&ref, j)
					if rng.Intn(8) == 0 {
						pop(rng.Intn(40))
					}
					if q.Len() != ref.Len() {
						t.Fatalf("Len = %d, want %d", q.Len(), ref.Len())
					}
				}
				pop(ref.Len())
				if q.Len() != 0 {
					t.Fatalf("drained queue holds %d", q.Len())
				}
			})
		}
	}
}

// TestIngestQueueReleasesDrainedArray: a drained backlog hands its
// backing array back; a small one is kept for the next arrivals.
func TestIngestQueueReleasesDrainedArray(t *testing.T) {
	var q ingestQueue
	for _, j := range queueArrivals(1, 3*queueKeep, 0, 0) {
		q.push(j)
	}
	for q.Len() > 0 {
		q.pop()
	}
	if q.heap != nil {
		t.Errorf("drained queue keeps a %d-entry array", cap(q.heap))
	}
	for _, j := range queueArrivals(2, 10, 0, 0) {
		q.push(j)
	}
	for q.Len() > 0 {
		q.pop()
	}
	if cap(q.heap) == 0 {
		t.Error("drained queue released a small array")
	}
}

// TestSnapshotKeepsQueueOrder: a snapshot writes the queue in (Submit, ID)
// order, and a restored shard pops the same jobs in the same order.
func TestSnapshotKeepsQueueOrder(t *testing.T) {
	cfg := Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute}
	src := testShard(t, cfg)
	for i, j := range queueArrivals(3, 500, 0.2, 0.2) {
		src.admitLocked(j, uint64(i), time.Time{})
	}
	for range 50 {
		src.future.pop()
	}
	restored := testShard(t, Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err := restored.restoreSnapshot(src.marshalSnapshotLocked()); err != nil {
		t.Fatal(err)
	}
	for src.future.Len() > 0 {
		want := src.future.pop()
		if restored.future.Len() == 0 {
			t.Fatalf("restored queue ran out before job %d", want.ID)
		}
		if got := restored.future.pop(); got.ID != want.ID || !got.Submit.Equal(want.Submit) {
			t.Fatalf("restored queue pops job %d at %v, want %d at %v", got.ID, got.Submit, want.ID, want.Submit)
		}
	}
	if restored.future.Len() != 0 {
		t.Fatalf("restored queue holds %d more jobs", restored.future.Len())
	}
}

// BenchmarkIngestBacklog is the ingest queue under a replay backlog: 200k
// jobs, 1% of them submitted late (out of (Submit, ID) order), admitted
// before the first round, then ingested round by round into the
// simulator's pending set. One op is the whole backlog; ns/job is per job.
// A replay client's arrivals come in order; the late 1% makes pushes sift
// up too, and the heap's pops cost the same either way.
func BenchmarkIngestBacklog(b *testing.B) {
	const n = 200_000
	env := testEnv(b)
	arrivals := queueArrivals(7, n, 0.01, 0.05)
	for b.Loop() {
		b.StopTimer()
		sh := testShard(b, Config{Env: env, Scheduler: newScheduler(b), Tolerance: 0.5,
			Round: time.Minute, QueueCap: n + 1, DecisionLogCap: 1})
		jobs := make([]*trace.Job, n)
		for i, j := range arrivals {
			c := *j
			jobs[i] = &c
		}
		b.StartTimer()
		for i, j := range jobs {
			sh.admitLocked(j, uint64(i), time.Time{})
		}
		for k := int64(0); sh.sim.Pending() < n; k++ {
			sh.ingestDueLocked(k, time.Time{})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
}
