package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/workload"
)

// referenceMostUrgent is the slack manager as it was before the bounded
// selection: score every job afresh, stable-sort the whole backlog by score,
// truncate. It is the oracle the selection and the memoized L̄_m must match
// pick for pick.
func referenceMostUrgent(ctx *cluster.Context, jobs []*cluster.PendingJob, limit int) []*cluster.PendingJob {
	ids := ctx.Env.IDs()
	scoredJobs := make([]urgentJob, len(jobs))
	for i, pj := range jobs {
		job := pj.Job
		avgLat := ctx.Net.AvgLatency(job.Home, ids, workload.PackageMB(job.Benchmark))
		waited := ctx.Now.Sub(pj.FirstSeen)
		u := ctx.Tolerance*float64(job.EstDuration) - float64(avgLat) - float64(waited)
		scoredJobs[i] = urgentJob{pj: pj, u: u}
	}
	sort.SliceStable(scoredJobs, func(i, j int) bool { return scoredJobs[i].u < scoredJobs[j].u })
	out := make([]*cluster.PendingJob, 0, limit)
	for i := 0; i < limit && i < len(scoredJobs); i++ {
		out = append(out, scoredJobs[i].pj)
	}
	return out
}

// randomBacklog draws n pending jobs over every home and the given
// benchmarks. With tieFlood most jobs share one (home, benchmark,
// EstDuration, FirstSeen) and so one exact score; the rest are drawn from a
// few values, so ties also straddle the cut.
func randomBacklog(rng *rand.Rand, n int, ids []region.ID, benchmarks []string, tieFlood bool) []*cluster.PendingJob {
	jobs := make([]*cluster.PendingJob, n)
	for i := range jobs {
		home := ids[rng.Intn(len(ids))]
		bench := benchmarks[rng.Intn(len(benchmarks))]
		est := time.Duration(1+rng.Intn(3600)) * time.Second
		seen := testStart.Add(-time.Duration(rng.Intn(7200)) * time.Second)
		if tieFlood {
			est = time.Duration(1+rng.Intn(3)) * 10 * time.Minute
			seen = testStart.Add(-time.Duration(rng.Intn(3)) * time.Minute)
			if rng.Intn(10) < 7 {
				home, bench, est, seen = ids[0], benchmarks[0], 10*time.Minute, testStart
			}
		}
		jobs[i] = &cluster.PendingJob{
			Job:       &trace.Job{ID: i, Home: home, Benchmark: bench, EstDuration: est},
			FirstSeen: seen,
		}
	}
	return jobs
}

func TestMostUrgentMatchesReference(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t, env, nil, 0.5, nil)
	rng := rand.New(rand.NewSource(14))
	// One benchmark outside Table 1 takes the 500 MB default package.
	benchmarks := append(workload.Names(), "not-in-table-1")
	sizes := []int{1, 2, 3, 17, 63, 64, 65, 500, 5000, 20000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-2]
	}
	for _, n := range sizes {
		for _, tieFlood := range []bool{false, true} {
			jobs := randomBacklog(rng, n, env.IDs(), benchmarks, tieFlood)
			for _, limit := range []int{1, 64, n - 1, n, n + 7} {
				want := referenceMostUrgent(ctx, jobs, limit)
				got := s.mostUrgent(ctx, jobs, limit)
				if len(got) != len(want) {
					t.Fatalf("n=%d ties=%v limit=%d: picked %d jobs, reference %d", n, tieFlood, limit, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d ties=%v limit=%d: pick %d is job %d, reference job %d",
							n, tieFlood, limit, i, got[i].Job.ID, want[i].Job.ID)
					}
				}
			}
		}
	}

	// The memo's lifetime: the first ranking of a backlog fills each job's
	// memo and the next two, with the clock moved on, only read it; jobs
	// appended after that arrive without one and are ranked beside the
	// memoized ones.
	matches := func(ctx *cluster.Context, jobs []*cluster.PendingJob, label string) {
		t.Helper()
		for _, limit := range []int{1, 64, len(jobs) / 2} {
			want := referenceMostUrgent(ctx, jobs, limit)
			got := s.mostUrgent(ctx, jobs, limit)
			if len(got) != len(want) {
				t.Fatalf("%s limit=%d: picked %d jobs, reference %d", label, limit, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s limit=%d: pick %d is job %d, reference job %d",
						label, limit, i, got[i].Job.ID, want[i].Job.ID)
				}
			}
		}
	}
	for _, tieFlood := range []bool{false, true} {
		jobs := randomBacklog(rng, 3000, env.IDs(), benchmarks, tieFlood)
		later := *ctx
		for _, wait := range []time.Duration{0, 7 * time.Minute, 95 * time.Minute} {
			later.Now = testStart.Add(wait)
			matches(&later, jobs, fmt.Sprintf("ties=%v now=+%v", tieFlood, wait))
		}
		fresh := randomBacklog(rng, 1000, env.IDs(), benchmarks, tieFlood)
		for i, pj := range fresh {
			pj.Job.ID = len(jobs) + i
			pj.FirstSeen = pj.FirstSeen.Add(95 * time.Minute)
		}
		jobs = append(jobs, fresh...)
		later.Now = testStart.Add(2 * time.Hour)
		matches(&later, jobs, fmt.Sprintf("ties=%v with fresh jobs", tieFlood))
	}
}

// rankProbe is a scheduler that places nothing and, every round, checks the
// slack manager's picks from the simulator's own queue against the
// reference. With alt set it also records whether the reference would pick
// differently under tolerance alt.
type rankProbe struct {
	t          *testing.T
	s          *Scheduler
	alt        float64
	rounds     int
	altDiffers bool
}

func (p *rankProbe) Name() string { return "rank-probe" }

func (p *rankProbe) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	const limit = 64
	want := referenceMostUrgent(ctx, ctx.Jobs, limit)
	got := p.s.mostUrgent(ctx, ctx.Jobs, limit)
	for i := range want {
		if got[i] != want[i] {
			p.t.Fatalf("round %d at tolerance %g: pick %d is job %d, reference job %d",
				p.rounds, ctx.Tolerance, i, got[i].Job.ID, want[i].Job.ID)
		}
	}
	if p.alt != 0 {
		alt := *ctx
		alt.Tolerance = p.alt
		altWant := referenceMostUrgent(&alt, ctx.Jobs, limit)
		for i := range want {
			p.altDiffers = p.altDiffers || altWant[i] != want[i]
		}
	}
	p.rounds++
	return nil, nil
}

// A queue carried through PendingSnapshot and RestorePending into a Sim
// with another tolerance ranks as Eq. 14 says under the new tolerance: the
// memo filled under the old one does not survive the restore.
func TestSlackMemoClearedOnRestore(t *testing.T) {
	env := testEnv(t)
	backlog := randomBacklog(rand.New(rand.NewSource(29)), 2000, env.IDs(), workload.Names(), false)
	const loose, tight = 2.0, 0.1
	first, err := cluster.NewSim(cluster.Config{Env: env, Tolerance: loose}, &rankProbe{t: t, s: mustNew(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, pj := range backlog {
		first.Submit(pj.Job, pj.FirstSeen)
	}
	for round := range 2 {
		if _, err := first.Step(testStart.Add(time.Duration(round) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	snap := first.PendingSnapshot()
	if len(snap) != len(backlog) || !snap[0].Slack.Set {
		t.Fatalf("snapshot of %d jobs, first memo set %v: want %d jobs ranked under tolerance %g",
			len(snap), snap[0].Slack.Set, len(backlog), loose)
	}

	probe := &rankProbe{t: t, s: mustNew(t), alt: loose}
	second, err := cluster.NewSim(cluster.Config{Env: env, Tolerance: tight}, probe)
	if err != nil {
		t.Fatal(err)
	}
	second.RestorePending(snap)
	if _, err := second.Step(testStart.Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if probe.rounds != 1 || !probe.altDiffers {
		t.Fatalf("%d rounds ranked after the restore, tolerances %g and %g rank differently: %v; want 1 round and a difference",
			probe.rounds, loose, tight, probe.altDiffers)
	}
}

func mustNew(t *testing.T) *Scheduler {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The selection's scratch is sized to limit and pooled: after the first
// call only the region list and the returned slice are allocated, whatever
// the backlog.
func TestMostUrgentAllocatesPerLimitNotBacklog(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t, env, nil, 0.5, nil)
	jobs := randomBacklog(rand.New(rand.NewSource(1)), 15000, env.IDs(), workload.Names(), false)
	if allocs := testing.AllocsPerRun(10, func() { s.mostUrgent(ctx, jobs, 64) }); allocs > 2 {
		t.Errorf("mostUrgent(15000 jobs, limit 64) = %v allocations per call, want 2 (region list, result)", allocs)
	}
	if c := cap(s.urgBuf); c != 64 {
		t.Errorf("selection scratch holds %d entries after limit-64 calls, want 64", c)
	}
}

// referenceSlack is the end-to-end oracle: a controller with its own slack
// manager off (so an over-limit round takes the head of the queue) behind a
// front that moves the reference selection to the head. The rounds it
// forwards differ from the real controller's only in who ranked the backlog.
type referenceSlack struct{ inner *Scheduler }

func (r *referenceSlack) Name() string { return r.inner.Name() }

func (r *referenceSlack) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	limit := 0
	for _, id := range ctx.Env.IDs() {
		limit += ctx.Free[id]
	}
	limit = min(limit, r.inner.cfg.MaxBatch)
	if limit == 0 || len(ctx.Jobs) <= limit {
		return r.inner.Schedule(ctx)
	}
	picked := referenceMostUrgent(ctx, ctx.Jobs, limit)
	isPicked := make(map[*cluster.PendingJob]bool, len(picked))
	for _, pj := range picked {
		isPicked[pj] = true
	}
	// A copy: ctx.Jobs is the simulator's own queue.
	reordered := *ctx
	reordered.Jobs = picked
	for _, pj := range ctx.Jobs {
		if !isPicked[pj] {
			reordered.Jobs = append(reordered.Jobs, pj)
		}
	}
	return r.inner.Schedule(&reordered)
}

// A flash crowd well above capacity, replayed through the real controller
// and through the reference slack manager, places every job identically,
// round by round.
func TestFlashCrowdRunMatchesReferenceSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	regions := region.Defaults()
	for i := range regions {
		regions[i].Servers = 8
	}
	env, err := region.NewEnvironment(regions, energy.Table, testStart, 24*4, 77)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.GenerateFlashCrowd(trace.FlashConfig{
		Config: trace.Config{
			Start: testStart, Duration: 8 * time.Hour, JobsPerDay: 5000,
			Regions: env.IDs(), DurationScale: 0.3, Seed: 9,
		},
		FlashAt: 2 * time.Hour, FlashDuration: time.Hour, FlashMult: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	real, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fifo := DefaultConfig()
	fifo.DisableSlackManager = true
	inner, err := New(fifo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Env: env, Tolerance: 0.5}
	got, err := cluster.Run(cfg, real, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Run(cfg, &referenceSlack{inner}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 2000 || len(got.Outcomes) != len(jobs) || len(want.Outcomes) != len(jobs) {
		t.Fatalf("trace of %d jobs: %d and %d outcomes", len(jobs), len(got.Outcomes), len(want.Outcomes))
	}
	ranked, peak := 0, 0
	if len(got.Ticks) != len(want.Ticks) {
		t.Fatalf("%d rounds, reference %d", len(got.Ticks), len(want.Ticks))
	}
	for i, g := range got.Ticks {
		w := want.Ticks[i]
		if !g.At.Equal(w.At) || g.Batch != w.Batch || g.Decided != w.Decided {
			t.Fatalf("round %d: at %v batch %d decided %d, reference at %v batch %d decided %d",
				i, g.At, g.Batch, g.Decided, w.At, w.Batch, w.Decided)
		}
		if g.Batch > DefaultConfig().MaxBatch {
			ranked++
		}
		peak = max(peak, g.Batch)
	}
	t.Logf("%d jobs, %d rounds ranked a backlog, peak backlog %d", len(jobs), ranked, peak)
	if ranked < 50 || peak < 1000 {
		t.Fatalf("only %d rounds ranked a backlog (peak %d): the trace does not exercise the slack manager", ranked, peak)
	}
	for i, g := range got.Outcomes {
		w := want.Outcomes[i]
		if g.Job.ID != w.Job.ID || g.Region != w.Region || !g.Start.Equal(w.Start) || !g.Finish.Equal(w.Finish) {
			t.Fatalf("job %d -> %s [%v, %v], reference job %d -> %s [%v, %v]",
				g.Job.ID, g.Region, g.Start, g.Finish, w.Job.ID, w.Region, w.Start, w.Finish)
		}
	}
}

var sinkPicked []*cluster.PendingJob

// BenchmarkMostUrgent ranks a backlog whose jobs the slack manager has
// already ranked once (every memo set, as in each overloaded round after a
// job's first), and, under cold/, one whose memos are all empty (every job
// new to the slack manager).
func BenchmarkMostUrgent(b *testing.B) {
	env := testEnv(b)
	ctx := testCtx(b, env, nil, 0.5, nil)
	for _, cold := range []bool{false, true} {
		for _, n := range []int{1000, 15000, 100000} {
			name := fmt.Sprintf("backlog=%dk/limit=64", n/1000)
			if cold {
				name = "cold/" + name
			}
			b.Run(name, func(b *testing.B) {
				s, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				jobs := randomBacklog(rand.New(rand.NewSource(1)), n, env.IDs(), workload.Names(), false)
				sinkPicked = s.mostUrgent(ctx, jobs, 64) // fills every memo
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if cold {
						b.StopTimer()
						for _, pj := range jobs {
							pj.Slack = cluster.SlackMemo{}
						}
						b.StartTimer()
					}
					sinkPicked = s.mostUrgent(ctx, jobs, 64)
				}
			})
		}
	}
}
