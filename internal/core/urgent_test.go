package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/workload"
)

// referenceMostUrgent is the slack manager as it was before any selection
// was bounded or kept across rounds: score every job afresh, stable-sort
// the whole backlog by score, truncate. It is the oracle the urgency index
// and the memoized L̄_m must match pick for pick.
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

// rank is one round of the urgency index that decides nothing: the limit
// picks from ctx.Jobs (a copy), every popped job pushed back.
func rank(s *Scheduler, ctx *cluster.Context, limit int) []*cluster.PendingJob {
	picked := slices.Clone(s.urg.pick(ctx, ctx.Env.IDs(), limit))
	s.urg.settle(ctx, nil, nil)
	return picked
}

// samePicks fails the test unless got is want, pick for pick.
func samePicks(t *testing.T, label string, got, want []*cluster.PendingJob) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: picked %d jobs, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pick %d is job %d, reference job %d", label, i, got[i].Job.ID, want[i].Job.ID)
		}
	}
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
	s := mustNew(t)
	ctx := testCtx(t, env, nil, 0.5, nil)
	rng := rand.New(rand.NewSource(14))
	// One benchmark outside Table 1 takes the 500 MB default package.
	benchmarks := append(workload.Names(), "not-in-table-1")
	sizes := []int{2, 3, 17, 63, 64, 65, 500, 5000, 20000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-2]
	}
	for _, n := range sizes {
		for _, tieFlood := range []bool{false, true} {
			// A fresh Context per backlog: each first round builds the index.
			round := *ctx
			round.Jobs = randomBacklog(rng, n, env.IDs(), benchmarks, tieFlood)
			for _, limit := range []int{1, 64, n - 1} {
				if limit >= n {
					continue
				}
				label := fmt.Sprintf("n=%d ties=%v limit=%d", n, tieFlood, limit)
				samePicks(t, label, rank(s, &round, limit), referenceMostUrgent(&round, round.Jobs, limit))
			}
		}
	}

	// The index's lifetime on one Context: the first round fills each job's
	// memo and builds the index, the next ones, with the clock moved on,
	// reuse it; jobs appended after that arrive without a memo and are
	// pushed beside the indexed ones.
	for _, tieFlood := range []bool{false, true} {
		later := *ctx
		later.Jobs = randomBacklog(rng, 3000, env.IDs(), benchmarks, tieFlood)
		builds := s.urg.builds
		matches := func(label string) {
			t.Helper()
			for _, limit := range []int{1, 64, len(later.Jobs) / 2} {
				samePicks(t, fmt.Sprintf("%s limit=%d", label, limit), rank(s, &later, limit), referenceMostUrgent(&later, later.Jobs, limit))
			}
		}
		for _, wait := range []time.Duration{0, 7 * time.Minute, 95 * time.Minute} {
			later.Now = testStart.Add(wait)
			matches(fmt.Sprintf("ties=%v now=+%v", tieFlood, wait))
		}
		fresh := randomBacklog(rng, 1000, env.IDs(), benchmarks, tieFlood)
		for i, pj := range fresh {
			pj.Job.ID = len(later.Jobs) + i
			pj.FirstSeen = pj.FirstSeen.Add(95 * time.Minute)
		}
		later.Jobs = append(later.Jobs, fresh...)
		later.Now = testStart.Add(2 * time.Hour)
		matches(fmt.Sprintf("ties=%v with fresh jobs", tieFlood))
		if got := s.urg.builds - builds; got != 1 {
			t.Errorf("ties=%v: %d index builds over 12 rounds of one queue, want 1", tieFlood, got)
		}
	}
}

// scanByMemo ranks ctx.Jobs by the scores their Slack memos give, the way
// every round scored jobs before the index: score all, stable-sort,
// truncate.
func scanByMemo(ctx *cluster.Context, limit int) []*cluster.PendingJob {
	scored := make([]urgentJob, len(ctx.Jobs))
	now := ctx.Now.UnixNano()
	for i, pj := range ctx.Jobs {
		scored[i] = urgentJob{pj: pj, u: pj.Slack.Base - float64(now-pj.FirstSeen.UnixNano())}
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].u < scored[j].u })
	out := make([]*cluster.PendingJob, limit)
	for i := range out {
		out[i] = scored[i].pj
	}
	return out
}

// The heap orders jobs by key, the score rounds differently: a queue built
// of pairs whose exact keys differ by less than one ulp of the score, so
// that each pair's keys are ordered while its scores tie (and the tie goes
// to the pair's first job, which has the larger key). The index must pick
// what the full scan picks at every cut, although the key order alone does
// not.
func TestUrgencyIndexNearTies(t *testing.T) {
	env := testEnv(t)
	s := mustNew(t)
	ctx := testCtx(t, env, nil, 0.5, nil)
	later := testStart.Add(3 * time.Hour) // scores near 1e13 ns: an ulp of 2e-3
	rng := rand.New(rand.NewSource(3))
	pairs := 0
	for pairs < 300 {
		base := float64(1+rng.Intn(2000)) * 1e9 * rng.Float64()
		seen := testStart.Add(-time.Duration(rng.Intn(1000)) * time.Second)
		below := math.Nextafter(base, math.Inf(-1))
		f := float64(seen.UnixNano() - testStart.UnixNano())
		w := float64(later.UnixNano() - seen.UnixNano())
		if !(below+f < base+f && base-w == below-w) {
			continue
		}
		for _, b := range []float64{base, below} {
			ctx.Jobs = append(ctx.Jobs, &cluster.PendingJob{
				Job:       &trace.Job{ID: len(ctx.Jobs), Home: region.Milan, Benchmark: "canneal"},
				FirstSeen: seen, Slack: cluster.SlackMemo{Base: b, Set: true},
			})
		}
		pairs++
	}
	rank(s, ctx, 1) // builds the index, measuring keys from testStart
	ctx.Now = later
	byKeyDiffers := false
	for limit := 1; limit < 2*pairs; limit += 2 {
		want := scanByMemo(ctx, limit)
		samePicks(t, fmt.Sprintf("limit=%d", limit), rank(s, ctx, limit), want)
		byKey := slices.Clone(ctx.Jobs)
		slices.SortStableFunc(byKey, func(a, b *cluster.PendingJob) int {
			ka := a.Slack.Base + float64(a.FirstSeen.UnixNano()-testStart.UnixNano())
			kb := b.Slack.Base + float64(b.FirstSeen.UnixNano()-testStart.UnixNano())
			return cmpFloat(ka, kb)
		})
		byKeyDiffers = byKeyDiffers || !slices.Equal(byKey[:limit], want)
	}
	if s.urg.builds != 1 {
		t.Errorf("%d index builds, want 1: the near ties must meet the incremental path", s.urg.builds)
	}
	if !byKeyDiffers {
		t.Fatal("the key order picks what the scores pick at every cut: the queue has no near ties")
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// rankProbe is a scheduler that, every round, checks the urgency index's
// picks from the simulator's own queue against the reference, and places
// the first decide of them at home. With alt set it also records whether
// the reference would pick differently under tolerance alt.
type rankProbe struct {
	t          *testing.T
	s          *Scheduler
	alt        float64
	decide     int
	rounds     int
	altDiffers bool
}

func (p *rankProbe) Name() string { return "rank-probe" }

func (p *rankProbe) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	const limit = 64
	want := referenceMostUrgent(ctx, ctx.Jobs, limit)
	var dec []cluster.Decision
	if len(ctx.Jobs) <= limit {
		p.s.urg.drop()
	} else {
		got := p.s.urg.pick(ctx, ctx.Env.IDs(), limit)
		samePicks(p.t, fmt.Sprintf("round %d at tolerance %g", p.rounds, ctx.Tolerance), got, want)
		for _, pj := range got[:min(p.decide, limit)] {
			dec = append(dec, cluster.Decision{Job: pj.Job, Region: pj.Job.Home})
		}
		p.s.urg.settle(ctx, dec, nil)
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
	return dec, nil
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

func mustNew(t testing.TB) *Scheduler {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A round on a standing index allocates nothing, and its scratch is sized
// by the picks, not the backlog.
func TestMostUrgentAllocatesPerLimitNotBacklog(t *testing.T) {
	env := testEnv(t)
	s := mustNew(t)
	ctx := testCtx(t, env, nil, 0.5, nil)
	ctx.Jobs = randomBacklog(rand.New(rand.NewSource(1)), 15000, env.IDs(), workload.Names(), false)
	ids := env.IDs()
	round := func() {
		s.urg.pick(ctx, ids, 64)
		s.urg.settle(ctx, nil, nil)
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("a round over 15000 indexed jobs, limit 64 = %v allocations, want 0", allocs)
	}
	if s.urg.builds != 1 {
		t.Errorf("%d index builds, want 1", s.urg.builds)
	}
	if c := cap(s.urg.popped); c > 128 {
		t.Errorf("pick scratch holds %d entries after limit-64 rounds, want at most 128", c)
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

// fullScanCheck runs the real controller and checks, every round that
// ranks, that the batch it solved is what the reference full scan picks.
type fullScanCheck struct {
	t                      *testing.T
	s                      *Scheduler
	ranked, zeroCap, fifos int
}

func (c *fullScanCheck) Name() string { return c.s.Name() }

func (c *fullScanCheck) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	total := 0
	for _, id := range ctx.Env.IDs() {
		total += ctx.Free[id]
	}
	if total == 0 {
		c.zeroCap++
	}
	limit := min(total, c.s.cfg.MaxBatch)
	ranks := total > 0 && len(ctx.Jobs) > limit
	var want []*cluster.PendingJob
	if ranks && !c.s.cfg.DisableSlackManager {
		want = referenceMostUrgent(ctx, ctx.Jobs, limit)
	}
	head := ctx.Jobs[:min(limit, len(ctx.Jobs))]
	dec, err := c.s.Schedule(ctx)
	switch {
	case ranks && c.s.cfg.DisableSlackManager:
		c.fifos++
		for _, d := range dec {
			if !slices.ContainsFunc(head, func(pj *cluster.PendingJob) bool { return pj.Job == d.Job }) {
				c.t.Fatalf("FIFO round decided job %d, not among the %d at the head of the queue", d.Job.ID, limit)
			}
		}
	case ranks:
		c.ranked++
		samePicks(c.t, fmt.Sprintf("round at %v", ctx.Now), c.s.urg.picked, want)
	}
	return dec, err
}

// flashRun replays a flash crowd well above capacity through check.
func flashRun(t *testing.T, tol float64, check *fullScanCheck) {
	t.Helper()
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
	res, err := cluster.Run(cluster.Config{Env: env, Tolerance: tol}, check, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(jobs) {
		t.Fatalf("%d jobs, %d outcomes", len(jobs), len(res.Outcomes))
	}
}

// Whole replays, round by round: a flash crowd at three tolerances and the
// paper's regime pick exactly what the full scan picks in every ranked
// round, and almost every ranked round reuses the index.
func TestUrgencyIndexMatchesFullScanOverReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	check := func(t *testing.T, c *fullScanCheck, minRanked int) {
		t.Logf("%d ranked rounds, %d index builds", c.ranked, c.s.urg.builds)
		if c.ranked < minRanked || c.s.urg.builds*4 > c.ranked {
			t.Fatalf("%d ranked rounds with %d index builds: want at least %d rounds, a quarter of them builds at most",
				c.ranked, c.s.urg.builds, minRanked)
		}
	}
	for _, tol := range []float64{0.1, 0.25, 0.5} {
		t.Run(fmt.Sprintf("flash/tol=%g", tol), func(t *testing.T) {
			c := &fullScanCheck{t: t, s: mustNew(t)}
			flashRun(t, tol, c)
			check(t, c, 50)
		})
	}
	// The paper's fleet and arrival rate with jobs long enough to fill it:
	// the paper's own regime (paperRun) never ranks a backlog.
	busy := paperRun
	busy.durScale = 0.9
	t.Run("paper", func(t *testing.T) {
		c := &fullScanCheck{t: t, s: busy.waterwise(t)}
		busy.run(t, c)
		check(t, c, 5)
	})
}

// handOverSim returns a Sim over env at tolerance 0.5 driven by sched, with
// jobs submitted at their FirstSeen.
func handOverSim(t *testing.T, env *region.Environment, sched cluster.Scheduler, jobs []*cluster.PendingJob) *cluster.Sim {
	t.Helper()
	sim, err := cluster.NewSim(cluster.Config{Env: env, Tolerance: 0.5}, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, pj := range jobs {
		sim.Submit(pj.Job, pj.FirstSeen)
	}
	return sim
}

func step(t *testing.T, sim *cluster.Sim, round int) {
	t.Helper()
	if _, err := sim.Step(testStart.Add(time.Duration(round) * time.Minute)); err != nil {
		t.Fatal(err)
	}
}

// Every way the queue changes hands under the index is caught by its O(1)
// check and answered by one rebuild; the rounds between reuse the index.
func TestUrgencyIndexHandOver(t *testing.T) {
	env := testEnv(t)
	backlog := func(seed int64) []*cluster.PendingJob {
		return randomBacklog(rand.New(rand.NewSource(seed)), 600, env.IDs(), workload.Names(), false)
	}
	t.Run("restore", func(t *testing.T) {
		p := &rankProbe{t: t, s: mustNew(t), decide: 10}
		sim := handOverSim(t, env, p, backlog(1))
		for r := range 3 {
			step(t, sim, r)
		}
		sim.RestorePending(sim.PendingSnapshot())
		for r := 3; r < 6; r++ {
			step(t, sim, r)
		}
		if p.rounds != 6 || p.s.urg.builds != 2 {
			t.Fatalf("%d rounds, %d index builds; want 6 rounds, 2 builds", p.rounds, p.s.urg.builds)
		}
	})
	t.Run("abandon and resubmit", func(t *testing.T) {
		p := &rankProbe{t: t, s: mustNew(t), decide: 10}
		sim := handOverSim(t, env, p, backlog(2))
		for r := range 3 {
			step(t, sim, r)
		}
		for _, j := range sim.Abandon() {
			sim.Submit(j, testStart)
		}
		for r := 3; r < 6; r++ {
			step(t, sim, r)
		}
		if p.rounds != 6 || p.s.urg.builds != 2 {
			t.Fatalf("%d rounds, %d index builds; want 6 rounds, 2 builds", p.rounds, p.s.urg.builds)
		}
	})
	t.Run("two sims", func(t *testing.T) {
		s := mustNew(t)
		a := handOverSim(t, env, &rankProbe{t: t, s: s, decide: 10}, backlog(3))
		b := handOverSim(t, env, &rankProbe{t: t, s: s, decide: 5}, backlog(4))
		for r := range 6 {
			step(t, a, r)
			step(t, b, r)
		}
		if s.urg.builds != 12 {
			t.Fatalf("%d index builds over 12 rounds alternating two Sims, want 12", s.urg.builds)
		}
	})
	t.Run("slack manager disabled", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DisableSlackManager = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := &fullScanCheck{t: t, s: s}
		sim := handOverSim(t, env, c, backlog(5))
		for r := range 4 {
			step(t, sim, r)
		}
		if c.fifos != 4 || s.urg.builds != 0 || s.urg.ctx != nil {
			t.Fatalf("%d FIFO rounds, %d index builds, index held %v; want 4 rounds and no index", c.fifos, s.urg.builds, s.urg.ctx != nil)
		}
	})
	t.Run("no capacity", func(t *testing.T) {
		regions := region.Defaults()
		for i := range regions {
			regions[i].Servers = 1
		}
		small, err := region.NewEnvironment(regions, energy.Table, testStart, 24*5, 21)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*cluster.PendingJob
		for _, pj := range randomBacklog(rand.New(rand.NewSource(6)), 60, small.IDs(), workload.Names(), false) {
			pj.Job.Duration, pj.Job.Energy, pj.Job.EstEnergy = 5*time.Minute, 0.05, 0.05
			jobs = append(jobs, pj)
		}
		c := &fullScanCheck{t: t, s: mustNew(t)}
		sim := handOverSim(t, small, c, jobs)
		for r := 0; sim.Pending() > 0; r++ {
			step(t, sim, r)
		}
		if c.zeroCap == 0 || c.ranked < 5 || c.s.urg.builds != 1 {
			t.Fatalf("%d rounds without capacity, %d ranked, %d index builds; want some, at least 5, and 1",
				c.zeroCap, c.ranked, c.s.urg.builds)
		}
	})
}

// A backlog mostly of one tie class (randomBacklog's tie flood: one home
// and benchmark admitted at one instant) ranks as the reference does while
// rounds decide scattered picks, so classes lose members from inside their
// picked prefix, and each round's arrivals, 70% of them one class again,
// join at the tail. A class is one heap node, and a round handles O(limit)
// jobs however large its classes are.
func TestUrgencyIndexTieClasses(t *testing.T) {
	env := testEnv(t)
	ids := env.IDs()
	s := mustNew(t)
	ctx := testCtx(t, env, nil, 0.5, nil)
	rng := rand.New(rand.NewSource(31))
	ctx.Jobs = randomBacklog(rng, 5000, ids, workload.Names(), true)
	id := len(ctx.Jobs)
	const limit = 64
	decided := make(map[*cluster.PendingJob]bool)
	for round := range 60 {
		got := slices.Clone(s.urg.pick(ctx, ids, limit))
		samePicks(t, fmt.Sprintf("round %d", round), got, referenceMostUrgent(ctx, ctx.Jobs, limit))
		if n := len(s.urg.popped); n > 3*limit {
			t.Fatalf("round %d ranked %d jobs exactly for %d picks", round, n, limit)
		}
		var dec []cluster.Decision
		clear(decided)
		for i, pj := range got {
			if i%3 != 1 {
				dec = append(dec, cluster.Decision{Job: pj.Job, Region: pj.Job.Home})
				decided[pj] = true
			}
		}
		s.urg.settle(ctx, dec, nil)
		ctx.Jobs = slices.DeleteFunc(ctx.Jobs, func(pj *cluster.PendingJob) bool { return decided[pj] })
		ctx.Now = ctx.Now.Add(time.Second)
		for _, pj := range randomBacklog(rng, 40, ids, workload.Names(), true) {
			pj.Job.ID, pj.FirstSeen = id, ctx.Now
			id++
			ctx.Jobs = append(ctx.Jobs, pj)
		}
	}
	if s.urg.builds != 1 {
		t.Errorf("%d index builds, want 1", s.urg.builds)
	}
	if n := len(s.urg.heap); n*5 > len(ctx.Jobs) {
		t.Errorf("%d heap nodes for %d queued jobs: the tie classes were not grouped", n, len(ctx.Jobs))
	}
}

// FuzzUrgencyIndex drives a Sim through random sequences of submissions,
// rounds that decide some of their picks, clock moves, restores, abandons,
// Sim switches, failed rounds and rounds that decide a job they did not
// pick, and checks every ranked round's picks against the reference.
func FuzzUrgencyIndex(f *testing.F) {
	f.Add([]byte{0, 40, 1, 1, 2, 9, 1, 0, 7, 1, 3, 1})
	f.Add([]byte{6, 3, 0, 200, 1, 2, 0, 1, 4, 1, 5, 8, 1, 7, 1, 8, 1, 1})
	f.Add([]byte{0, 255, 6, 64, 1, 1, 1, 2, 77, 1, 0, 12, 1, 3, 1, 2, 200, 1})
	env := testEnv(f)
	ids := env.IDs()
	names := workload.Names()
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := &fuzzHarness{t: t, s: mustNew(t), limit: 16, decide: 4, stride: 1}
		now := testStart
		sim := h.newSim(env, 0.5)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		id := 0
		for len(ops) > 0 {
			switch next() % 9 {
			case 0: // submit
				for range 1 + int(next())%64 {
					b := next()
					sim.Submit(&trace.Job{
						ID: id, Home: ids[int(b)%len(ids)], Benchmark: names[int(b/8)%len(names)],
						Duration: time.Minute, Energy: 0.05, EstEnergy: 0.05,
						EstDuration: time.Duration(1+int(next())) * 7919 * time.Millisecond,
					}, now.Add(-time.Duration(next())*1_000_003))
					id++
				}
			case 1: // round
				if _, err := sim.Step(now); err != nil && !h.failed {
					t.Fatal(err)
				}
				h.failed, h.stray = false, false
			case 2: // clock
				if now.Before(testStart.Add(72 * time.Hour)) {
					now = now.Add(time.Duration(1+int(next())) * 13_000_000_007)
				}
			case 3:
				sim.RestorePending(sim.PendingSnapshot())
			case 4:
				for _, j := range sim.Abandon() {
					sim.Submit(j, now)
				}
			case 5: // another Sim, another tolerance
				snap := sim.PendingSnapshot()
				sim = h.newSim(env, []float64{0.1, 0.25, 0.5, 1, 2}[next()%5])
				sim.RestorePending(snap)
			case 6:
				h.limit = 1 + int(next())%80
				h.decide = int(next()) % (h.limit + 1)
				h.stride = 1 + int(next())%3
			case 7:
				h.failed = true
			case 8:
				h.stray = true
			}
		}
	})
}

// fuzzHarness is FuzzUrgencyIndex's scheduler: a round offers the whole
// queue below limit, else ranks with the index and checks the reference;
// it decides every stride-th job it offers, up to decide of them, plus the
// queue's last job when stray is set, or fails the round when failed is
// set.
type fuzzHarness struct {
	t                     *testing.T
	s                     *Scheduler
	limit, decide, stride int
	failed, stray         bool
}

var errFuzzRound = fmt.Errorf("failed round")

func (h *fuzzHarness) newSim(env *region.Environment, tol float64) *cluster.Sim {
	sim, err := cluster.NewSim(cluster.Config{Env: env, Tolerance: tol}, h)
	if err != nil {
		h.t.Fatal(err)
	}
	return sim
}

func (h *fuzzHarness) Name() string { return "fuzz-urgency" }

func (h *fuzzHarness) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	offered := ctx.Jobs
	ranked := len(ctx.Jobs) > h.limit
	if ranked {
		offered = h.s.urg.pick(ctx, ctx.Env.IDs(), h.limit)
		samePicks(h.t, fmt.Sprintf("limit %d at %v", h.limit, ctx.Now), offered, referenceMostUrgent(ctx, ctx.Jobs, h.limit))
	} else {
		h.s.urg.drop()
	}
	var dec []cluster.Decision
	for i := 0; i < len(offered) && len(dec) < h.decide; i += h.stride {
		dec = append(dec, cluster.Decision{Job: offered[i].Job, Region: offered[i].Job.Home})
	}
	if last := ctx.Jobs[len(ctx.Jobs)-1]; h.stray && !slices.ContainsFunc(dec, func(d cluster.Decision) bool { return d.Job == last.Job }) {
		dec = append(dec, cluster.Decision{Job: last.Job, Region: last.Job.Home})
	}
	var err error
	if h.failed {
		dec, err = nil, errFuzzRound
	}
	if ranked {
		h.s.urg.settle(ctx, dec, err)
	}
	return dec, err
}

var sinkDecisions []cluster.Decision

// BenchmarkScheduleBacklog times one overloaded round of the controller
// over a standing backlog, round after round on one Context the way a Sim
// keeps it: the round's decided jobs leave the queue, as many arrivals
// join its tail, and the clock moves on a second. All servers are free
// every round, so each round places 64 jobs (MaxBatch). The queue upkeep
// runs outside the timer, and so does a first round, which ranks every job
// once: the steady state of an overloaded run. In the ties case 70% of the
// backlog is one home and benchmark admitted at one instant
// (randomBacklog's tie flood), moved an hour back so that it is the most
// urgent class and sits at the cut every round; when fewer than a tenth of
// the backlog is left in it, a fresh backlog replaces the queue, outside
// the timer with its first round.
func BenchmarkScheduleBacklog(b *testing.B) {
	env := testEnv(b)
	ids, names := env.IDs(), workload.Names()
	for _, c := range []struct {
		n    int
		ties bool
	}{{1000, false}, {15000, false}, {100000, false}, {15000, true}} {
		name := fmt.Sprintf("backlog=%dk", c.n/1000)
		if c.ties {
			name += "/ties"
		}
		b.Run(name, func(b *testing.B) {
			n := c.n
			s := mustNew(b)
			rng := rand.New(rand.NewSource(1))
			ctx := testCtx(b, env, nil, 0.5, nil)
			flood := testStart.Add(-time.Hour)
			id, left := 0, 0
			fill := func() {
				ctx.Jobs, left = randomBacklog(rng, n, ids, names, c.ties), 0
				for _, pj := range ctx.Jobs {
					pj.Job.ID = id
					id++
					if j := pj.Job; c.ties && pj.FirstSeen.Equal(testStart) && j.Home == ids[0] && j.Benchmark == names[0] && j.EstDuration == 10*time.Minute {
						pj.FirstSeen = flood
						left++
					}
				}
			}
			schedule := func() []cluster.Decision {
				dec, err := s.Schedule(ctx)
				if err != nil {
					b.Fatal(err)
				}
				return dec
			}
			decided := make(map[*trace.Job]bool)
			upkeep := func(dec []cluster.Decision) {
				sinkDecisions = dec
				clear(decided)
				for _, d := range dec {
					decided[d.Job] = true
				}
				ctx.Jobs = slices.DeleteFunc(ctx.Jobs, func(pj *cluster.PendingJob) bool {
					if decided[pj.Job] && pj.FirstSeen.Equal(flood) {
						left--
					}
					return decided[pj.Job]
				})
				ctx.Now = ctx.Now.Add(time.Second)
				for _, pj := range randomBacklog(rng, len(dec), ids, names, c.ties) {
					pj.Job.ID, pj.FirstSeen = id, ctx.Now
					id++
					ctx.Jobs = append(ctx.Jobs, pj)
				}
			}
			fills := 0
			start := func() { // a fresh backlog and its first round, which ranks every job once
				fill()
				fills++
				upkeep(schedule())
			}
			start()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				dec := schedule()
				b.StopTimer()
				upkeep(dec)
				if c.ties && left < n/10 {
					start()
				}
				b.StartTimer()
			}
			b.StopTimer()
			if s.urg.builds != fills {
				b.Fatalf("%d index builds for %d backlogs: a timed round rebuilt the index", s.urg.builds, fills)
			}
		})
	}
}
