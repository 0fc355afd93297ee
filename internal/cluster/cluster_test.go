package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/units"
	"waterwise/internal/workload"
)

var testStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func testEnv(t testing.TB) *region.Environment {
	t.Helper()
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// makeJobs builds a deterministic small trace by hand.
func makeJobs(n int, gap time.Duration, home region.ID) []*trace.Job {
	jobs := make([]*trace.Job, n)
	for i := range jobs {
		jobs[i] = &trace.Job{
			ID:          i,
			Submit:      testStart.Add(time.Duration(i) * gap),
			Benchmark:   "dedup",
			Home:        home,
			Duration:    10 * time.Minute,
			Energy:      0.05,
			EstDuration: 10 * time.Minute,
			EstEnergy:   0.05,
		}
	}
	return jobs
}

// homeScheduler is a minimal test scheduler sending everything home.
type homeScheduler struct{}

func (homeScheduler) Name() string { return "test-home" }
func (homeScheduler) Schedule(ctx *Context) ([]Decision, error) {
	out := make([]Decision, 0, len(ctx.Jobs))
	for _, pj := range ctx.Jobs {
		out = append(out, Decision{Job: pj.Job, Region: pj.Job.Home})
	}
	return out, nil
}

// deferringScheduler defers every job a fixed number of rounds, counting
// each job's offers itself (a queued job carries no deferral count).
type deferringScheduler struct {
	rounds int
	passed map[*PendingJob]int
}

func (d *deferringScheduler) Name() string { return "test-defer" }
func (d *deferringScheduler) Schedule(ctx *Context) ([]Decision, error) {
	if d.passed == nil {
		d.passed = make(map[*PendingJob]int)
	}
	var out []Decision
	for _, pj := range ctx.Jobs {
		if d.passed[pj] >= d.rounds {
			out = append(out, Decision{Job: pj.Job, Region: pj.Job.Home})
			delete(d.passed, pj)
			continue
		}
		d.passed[pj]++
	}
	return out, nil
}

func TestRunAllJobsComplete(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(50, time.Minute, region.Oregon)
	res, err := Run(Config{Env: env, Tolerance: 0.5}, homeScheduler{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 50 {
		t.Fatalf("outcomes = %d, want 50", len(res.Outcomes))
	}
	if len(res.Unscheduled) != 0 {
		t.Fatalf("unscheduled = %d, want 0", len(res.Unscheduled))
	}
	for _, o := range res.Outcomes {
		if o.Region != region.Oregon {
			t.Errorf("job %d ran in %s, want oregon", o.Job.ID, o.Region)
		}
		if o.Start.Before(o.Job.Submit) {
			t.Errorf("job %d started before submission", o.Job.ID)
		}
		if !o.Finish.Equal(o.Start.Add(o.Exec)) {
			t.Errorf("job %d finish != start+exec", o.Job.ID)
		}
		if o.Transfer != 0 {
			t.Errorf("home job %d has transfer latency %v", o.Job.ID, o.Transfer)
		}
		if o.Compute.Carbon() <= 0 || o.Compute.Water() <= 0 {
			t.Errorf("job %d footprint not positive", o.Job.ID)
		}
		if o.Comm.Carbon() != 0 {
			t.Errorf("home job %d has comm footprint", o.Job.ID)
		}
	}
}

func TestCapacityQueueing(t *testing.T) {
	// One region with 2 servers, 6 simultaneous 10-minute jobs: they must
	// run in 3 waves, with later waves delayed ~10 and ~20 minutes.
	regions, err := region.DefaultsSubset(region.Oregon)
	if err != nil {
		t.Fatal(err)
	}
	regions[0].Servers = 2
	env, err := region.NewEnvironment(regions, energy.Table, testStart, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(6, 0, region.Oregon)
	res, err := Run(Config{Env: env, Tolerance: 0.25}, homeScheduler{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(res.Outcomes))
	}
	var waves [3]int
	for _, o := range res.Outcomes {
		wait := o.Start.Sub(o.Job.Submit)
		switch {
		case wait < 10*time.Minute:
			waves[0]++
		case wait < 20*time.Minute:
			waves[1]++
		default:
			waves[2]++
		}
	}
	if waves[0] != 2 || waves[1] != 2 || waves[2] != 2 {
		t.Errorf("wave sizes = %v, want [2 2 2]", waves)
	}
	// The queued waves must be flagged as violations at 25% tolerance
	// (10 min wait >> 2.5 min allowance).
	if res.ViolationRate() < 0.5 {
		t.Errorf("violation rate = %.2f, want >= 0.5 with queueing", res.ViolationRate())
	}
}

func TestDeferredJobsEventuallyRun(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(10, time.Second, region.Milan)
	res, err := Run(Config{Env: env, Tolerance: 0.5}, &deferringScheduler{rounds: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 10 {
		t.Fatalf("outcomes = %d, want 10 (deferral must not lose jobs)", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if wait := o.Start.Sub(o.Job.Submit); wait < 3*time.Minute {
			t.Errorf("job %d waited only %v despite 3-round deferral", o.Job.ID, wait)
		}
	}
}

func TestMigrationAccountsTransfer(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(5, time.Minute, region.Oregon)
	sched := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		out := make([]Decision, 0, len(ctx.Jobs))
		for _, pj := range ctx.Jobs {
			out = append(out, Decision{Job: pj.Job, Region: region.Zurich})
		}
		return out, nil
	})
	res, err := Run(Config{Env: env, Tolerance: 1}, sched, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Region != region.Zurich {
			t.Fatalf("job %d not migrated", o.Job.ID)
		}
		if o.Transfer <= 0 {
			t.Errorf("job %d migrated with zero transfer latency", o.Job.ID)
		}
		if o.Comm.Carbon() <= 0 || o.Comm.Water() <= 0 {
			t.Errorf("job %d migrated without comm footprint", o.Job.ID)
		}
	}
}

// An unknown benchmark migrates at the package size every controller
// prices it at (workload.PackageMB's fallback), so it pays a transfer and
// a communication footprint like any other migration.
func TestUnknownBenchmarkMigratesDefaultPackage(t *testing.T) {
	env := testEnv(t)
	net := transfer.New()
	jobs := makeJobs(1, time.Minute, region.Oregon)
	jobs[0].Benchmark = "not-a-benchmark"
	toZurich := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		return []Decision{{Job: ctx.Jobs[0].Job, Region: region.Zurich}}, nil
	})
	res, err := Run(Config{Env: env, Net: net, Tolerance: 1}, toZurich, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("%d outcomes, want 1", len(res.Outcomes))
	}
	o := res.Outcomes[0]
	if want := net.Latency(region.Oregon, region.Zurich, workload.DefaultPackageMB); o.Transfer != want {
		t.Errorf("transfer %v, want %v (a %d MB package)", o.Transfer, want, workload.DefaultPackageMB)
	}
	if o.Comm.Carbon() <= 0 || o.Comm.Water() <= 0 {
		t.Errorf("comm footprint %+v, want a non-zero one", o.Comm)
	}
}

type schedulerFunc func(ctx *Context) ([]Decision, error)

func (schedulerFunc) Name() string                                { return "test-func" }
func (f schedulerFunc) Schedule(ctx *Context) ([]Decision, error) { return f(ctx) }

func TestSchedulerErrorsSurface(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(1, time.Minute, region.Oregon)
	// Unknown region.
	bad := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		return []Decision{{Job: ctx.Jobs[0].Job, Region: region.ID("atlantis")}}, nil
	})
	if _, err := Run(Config{Env: env}, bad, jobs); err == nil {
		t.Error("unknown region decision accepted")
	}
	// Decision for a non-pending job.
	ghost := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		fake := *ctx.Jobs[0].Job
		fake.ID = 999
		return []Decision{{Job: &fake, Region: region.Oregon}}, nil
	})
	if _, err := Run(Config{Env: env}, ghost, jobs); err == nil {
		t.Error("ghost job decision accepted")
	}
}

func TestUnsortedTraceRejected(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(2, time.Minute, region.Oregon)
	jobs[0], jobs[1] = jobs[1], jobs[0]
	if _, err := Run(Config{Env: env}, homeScheduler{}, jobs); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	env := testEnv(t)
	res, err := Run(Config{Env: env}, homeScheduler{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.TotalCarbon() != 0 || res.TotalWater() != 0 {
		t.Error("empty trace should produce empty result")
	}
	if res.MeanNormalizedService() != 0 || res.ViolationRate() != 0 {
		t.Error("empty result metrics should be zero")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, homeScheduler{}, nil); err == nil {
		t.Error("nil environment accepted")
	}
	env := testEnv(t)
	if _, err := Run(Config{Env: env, Tolerance: -1}, homeScheduler{}, nil); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestOverridesApplied(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(1, time.Minute, region.Oregon)
	stretch := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		return []Decision{{
			Job: ctx.Jobs[0].Job, Region: region.Oregon,
			DurationOverride: 30 * time.Minute, EnergyOverride: units.KWh(0.01),
		}}, nil
	})
	res, err := Run(Config{Env: env, Tolerance: 5}, stretch, jobs)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	if o.Exec != 30*time.Minute {
		t.Errorf("exec = %v, want 30m override", o.Exec)
	}
	// Energy override of 0.01 kWh at Oregon CI (~200-500) should produce
	// way less operational carbon than the 0.05 default would.
	if float64(o.Compute.OperationalCarbon) > 0.01*1100 {
		t.Errorf("energy override not applied: operational carbon %v", o.Compute.OperationalCarbon)
	}
}

func TestTickStatsRecorded(t *testing.T) {
	env := testEnv(t)
	jobs := makeJobs(20, 30*time.Second, region.Milan)
	res, err := Run(Config{Env: env, Tolerance: 0.5}, homeScheduler{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ticks) == 0 {
		t.Fatal("no tick stats recorded")
	}
	total := 0
	for _, ts := range res.Ticks {
		total += ts.Decided
		if ts.Batch < ts.Decided {
			t.Errorf("tick at %v decided %d > batch %d", ts.At, ts.Decided, ts.Batch)
		}
	}
	if total != 20 {
		t.Errorf("total decided = %d, want 20", total)
	}
}

func TestRegionStatePlacement(t *testing.T) {
	rs := newRegionState(2)
	// Two jobs start immediately; the third queues behind the earliest.
	s1 := rs.place(testStart, 10*time.Minute)
	s2 := rs.place(testStart, 20*time.Minute)
	s3 := rs.place(testStart, 5*time.Minute)
	if !s1.Equal(testStart) || !s2.Equal(testStart) {
		t.Errorf("first two placements should start immediately: %v %v", s1, s2)
	}
	if !s3.Equal(testStart.Add(10 * time.Minute)) {
		t.Errorf("third placement = %v, want queued behind the 10-minute job", s3)
	}
	if rs.freeCount(testStart) != 0 {
		t.Errorf("freeCount at start = %d, want 0", rs.freeCount(testStart))
	}
	if rs.freeCount(testStart.Add(16*time.Minute)) != 1 {
		t.Errorf("freeCount at +16m = %d, want 1 (5-minute job done on server 1)", rs.freeCount(testStart.Add(16*time.Minute)))
	}
}

// Property: placements never start before the requested time, freeCount
// stays within [0, servers], and no instant is covered by more reservations
// than there are servers.
func TestQuickRegionStateProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		servers := 1 + rng.Intn(5)
		rs := newRegionState(servers)
		var starts, ends []time.Time
		for i := 0; i < 40; i++ {
			want := testStart.Add(time.Duration(rng.Intn(600)) * time.Minute)
			exec := time.Duration(1+rng.Intn(60)) * time.Minute
			got := rs.place(want, exec)
			if got.Before(want) {
				return false
			}
			starts, ends = append(starts, got), append(ends, got.Add(exec))
			at := testStart.Add(time.Duration(rng.Intn(600)) * time.Minute)
			if f := rs.freeCount(at); f < 0 || f > servers {
				return false
			}
		}
		// Coverage peaks at some reservation's start.
		for _, at := range starts {
			running := 0
			for j := range starts {
				if !starts[j].After(at) && ends[j].After(at) {
					running++
				}
			}
			if running > servers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newTestRand avoids importing stats here just for a seeded source.
type testRand struct{ state uint64 }

func newTestRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// TestMergeResults covers the per-partition result merge the fleet uses:
// canonical job-ID ordering across parts, tick coalescing by round time,
// and the misuse rejections.
func TestMergeResults(t *testing.T) {
	at0, at1 := testStart, testStart.Add(time.Minute)
	j := func(id int) *trace.Job { return &trace.Job{ID: id, Submit: testStart} }
	a := &Result{
		Scheduler: "waterwise", Tolerance: 0.5,
		Outcomes: []JobOutcome{
			{Job: j(1), Region: region.Zurich, Start: at0},
			{Job: j(4), Region: region.Zurich, Start: at1},
		},
		Ticks:       []TickStat{{At: at0, Batch: 2, Decided: 1, Overhead: time.Millisecond}, {At: at1, Batch: 1, Decided: 1, Overhead: time.Millisecond}},
		Unscheduled: []*trace.Job{j(9)},
	}
	b := &Result{
		Scheduler: "waterwise", Tolerance: 0.5,
		Outcomes: []JobOutcome{
			{Job: j(0), Region: region.Mumbai, Start: at0},
			{Job: j(2), Region: region.Mumbai, Start: at0},
		},
		Ticks:       []TickStat{{At: at0, Batch: 2, Decided: 2, Overhead: 3 * time.Millisecond}},
		Unscheduled: []*trace.Job{j(7)},
	}
	m, err := MergeResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int{0, 1, 2, 4}
	if len(m.Outcomes) != len(wantIDs) {
		t.Fatalf("merged %d outcomes", len(m.Outcomes))
	}
	for i, id := range wantIDs {
		if m.Outcomes[i].Job.ID != id {
			t.Fatalf("outcome %d is job %d, want %d", i, m.Outcomes[i].Job.ID, id)
		}
	}
	if len(m.Unscheduled) != 2 || m.Unscheduled[0].ID != 7 || m.Unscheduled[1].ID != 9 {
		t.Fatalf("merged unscheduled %v", m.Unscheduled)
	}
	// at0 ticks from both parts coalesce; at1 stays alone.
	if len(m.Ticks) != 2 {
		t.Fatalf("merged %d ticks, want 2", len(m.Ticks))
	}
	if m.Ticks[0].Batch != 4 || m.Ticks[0].Decided != 3 || m.Ticks[0].Overhead != 4*time.Millisecond {
		t.Fatalf("coalesced tick %+v", m.Ticks[0])
	}
	if m.Ticks[1] != a.Ticks[1] {
		t.Fatalf("tick at %v altered: %+v", at1, m.Ticks[1])
	}
	if m.Scheduler != "waterwise" {
		t.Fatalf("scheduler %q", m.Scheduler)
	}
	// Distinct names are joined; mismatched tolerances are rejected.
	c := &Result{Scheduler: "baseline", Tolerance: 0.5}
	if m, err := MergeResults(a, c); err != nil || m.Scheduler != "waterwise+baseline" {
		t.Fatalf("joined name %q, err %v", m.Scheduler, err)
	}
	if _, err := MergeResults(a, &Result{Scheduler: "waterwise", Tolerance: 0.25}); err == nil {
		t.Error("tolerance mismatch accepted")
	}
	if _, err := MergeResults(); err == nil {
		t.Error("empty merge accepted")
	}
}
