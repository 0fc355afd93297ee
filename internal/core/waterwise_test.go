package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/footprint"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/workload"
)

var testStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func testEnv(t testing.TB) *region.Environment {
	t.Helper()
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*5, 21)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func makeJobs(n int, home region.ID) []*trace.Job {
	jobs := make([]*trace.Job, n)
	for i := range jobs {
		jobs[i] = &trace.Job{
			ID: i, Submit: testStart, Benchmark: "canneal", Home: home,
			Duration: 14 * time.Minute, Energy: 0.07,
			EstDuration: 14 * time.Minute, EstEnergy: 0.07,
		}
	}
	return jobs
}

func testCtx(t testing.TB, env *region.Environment, jobs []*trace.Job, tol float64, free map[region.ID]int) *cluster.Context {
	t.Helper()
	if free == nil {
		free = map[region.ID]int{}
		for _, r := range env.Regions {
			free[r.ID] = r.Servers
		}
	}
	pending := make([]*cluster.PendingJob, len(jobs))
	for i, j := range jobs {
		pending[i] = &cluster.PendingJob{Job: j, FirstSeen: testStart}
	}
	return &cluster.Context{
		Now: testStart, Jobs: pending, Free: free, Busy: map[region.ID]int{},
		Env: env, Net: transfer.New(), FP: footprint.NewModel(footprint.NoPerturbation),
		Tolerance: tol,
		FreeAt: func(id region.ID, start time.Time, exec time.Duration) int {
			return free[id]
		},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LambdaCarbon: 0.7, LambdaWater: 0.7}); err == nil {
		t.Error("weights summing to 1.4 accepted")
	}
	if _, err := New(Config{LambdaCarbon: -0.5, LambdaWater: 1.5}); err == nil {
		t.Error("negative weight accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("zero config should default: %v", err)
	}
	if s.cfg.LambdaCarbon != 0.5 || s.cfg.LambdaWater != 0.5 {
		t.Errorf("default lambdas = %g/%g, want 0.5/0.5", s.cfg.LambdaCarbon, s.cfg.LambdaWater)
	}
	if s.cfg.HistoryWindow != 10 || s.cfg.LambdaRef != 0.1 {
		t.Errorf("default history params = window %d λref %g, want 10/0.1 (paper defaults)",
			s.cfg.HistoryWindow, s.cfg.LambdaRef)
	}
}

func TestScheduleAssignsEachJobOnce(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(20, region.Mumbai)
	dec, err := s.Schedule(testCtx(t, env, jobs, 0.5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 20 {
		t.Fatalf("decisions = %d, want 20", len(dec))
	}
	seen := map[int]bool{}
	for _, d := range dec {
		if seen[d.Job.ID] {
			t.Fatalf("job %d decided twice (violates Eq. 9)", d.Job.ID)
		}
		seen[d.Job.ID] = true
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(12, region.Mumbai)
	free := map[region.ID]int{
		region.Zurich: 2, region.Madrid: 2, region.Oregon: 2,
		region.Milan: 2, region.Mumbai: 2,
	}
	dec, err := s.Schedule(testCtx(t, env, jobs, 0.5, free))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) > 10 {
		t.Fatalf("decided %d jobs with total capacity 10 (violates Eq. 10)", len(dec))
	}
	counts := map[region.ID]int{}
	for _, d := range dec {
		counts[d.Region]++
	}
	for id, c := range counts {
		if c > free[id] {
			t.Errorf("region %s got %d jobs, capacity %d (violates Eq. 10)", id, c, free[id])
		}
	}
}

func TestSchedulePrefersLowCarbonAndWater(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(30, region.Mumbai)
	dec, err := s.Schedule(testCtx(t, env, jobs, 1.0, nil))
	if err != nil {
		t.Fatal(err)
	}
	toMumbai := 0
	for _, d := range dec {
		if d.Region == region.Mumbai {
			toMumbai++
		}
	}
	// Mumbai is carbon-worst AND water-bad; with generous tolerance almost
	// everything should leave.
	if toMumbai > len(dec)/4 {
		t.Errorf("%d/%d jobs stayed in carbon-worst Mumbai", toMumbai, len(dec))
	}
}

func TestZeroCapacityDefersAll(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(5, region.Milan)
	free := map[region.ID]int{}
	for _, r := range env.Regions {
		free[r.ID] = 0
	}
	dec, err := s.Schedule(testCtx(t, env, jobs, 0.5, free))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("decided %d jobs with zero capacity", len(dec))
	}
}

func TestTightToleranceKeepsJobsNearHome(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance so tight that any migration latency would violate Eq. 11:
	// a 14-min job at 0.1% tolerance allows < 1s of transfer.
	jobs := makeJobs(10, region.Mumbai)
	dec, err := s.Schedule(testCtx(t, env, jobs, 0.001, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if d.Region != region.Mumbai {
			t.Errorf("job %d migrated to %s despite 0.1%% tolerance", d.Job.ID, d.Region)
		}
	}
}

func TestUrgencyOrdering(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs: one long-waiting (urgent), one fresh with a long est
	// duration (relaxed), one fresh short.
	long := &trace.Job{ID: 0, Submit: testStart.Add(-30 * time.Minute), Benchmark: "canneal",
		Home: region.Milan, Duration: 10 * time.Minute, Energy: 0.05,
		EstDuration: 10 * time.Minute, EstEnergy: 0.05}
	relaxed := &trace.Job{ID: 1, Submit: testStart, Benchmark: "canneal",
		Home: region.Milan, Duration: time.Hour, Energy: 0.3,
		EstDuration: time.Hour, EstEnergy: 0.3}
	short := &trace.Job{ID: 2, Submit: testStart, Benchmark: "canneal",
		Home: region.Milan, Duration: 10 * time.Minute, Energy: 0.05,
		EstDuration: 10 * time.Minute, EstEnergy: 0.05}
	pending := []*cluster.PendingJob{
		{Job: long, FirstSeen: testStart.Add(-30 * time.Minute)},
		{Job: relaxed, FirstSeen: testStart},
		{Job: short, FirstSeen: testStart},
	}
	ctx := testCtx(t, env, nil, 0.5, nil)
	ctx.Jobs = pending
	picked := rank(s, ctx, 2)
	if len(picked) != 2 {
		t.Fatalf("picked %d, want 2", len(picked))
	}
	if picked[0].Job.ID != 0 {
		t.Errorf("most urgent should be the long-waiting job, got %d", picked[0].Job.ID)
	}
	if picked[0].Job.ID == 1 || picked[1].Job.ID == 1 {
		t.Errorf("the relaxed long job should be dropped, picked %d and %d", picked[0].Job.ID, picked[1].Job.ID)
	}
}

func TestOverloadUsesSlackManagerAndSoftens(t *testing.T) {
	env := testEnv(t)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(40, region.Madrid)
	free := map[region.ID]int{
		region.Zurich: 3, region.Madrid: 3, region.Oregon: 3,
		region.Milan: 3, region.Mumbai: 3,
	}
	dec, err := s.Schedule(testCtx(t, env, jobs, 0.5, free))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) == 0 || len(dec) > 15 {
		t.Fatalf("decided %d jobs, want 1..15 under overload", len(dec))
	}
	_, softened := s.Stats()
	if softened == 0 {
		t.Error("overload round should engage the softened controller (Algorithm 1 line 7)")
	}
}

func TestHistoryLearnerUpdates(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.HistoryWindow = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(2, region.Milan)
	for round := 0; round < 5; round++ {
		ctx := testCtx(t, env, jobs, 0.5, nil)
		ctx.Now = testStart.Add(time.Duration(round) * time.Hour)
		if _, err := s.Schedule(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range env.IDs() {
		if n := len(s.histCarbon[id]); n != 3 {
			t.Errorf("history window for %s holds %d entries, want 3", id, n)
		}
		ref := s.refCarbon(id)
		if ref < 0 || ref > 1 {
			t.Errorf("normalized carbon ref for %s = %g outside [0,1]", id, ref)
		}
	}
	// The carbon-worst region must carry the highest reference.
	if s.refCarbon(region.Mumbai) < s.refCarbon(region.Zurich) {
		t.Error("history learner should rank Mumbai's carbon above Zurich's")
	}
}

func TestGreedyControllerMatchesMILPWhenSlack(t *testing.T) {
	env := testEnv(t)
	milpCfg := DefaultConfig()
	greedyCfg := DefaultConfig()
	greedyCfg.GreedyController = true
	milpS, err := New(milpCfg)
	if err != nil {
		t.Fatal(err)
	}
	greedyS, err := New(greedyCfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(10, region.Oregon)
	decM, err := milpS.Schedule(testCtx(t, env, jobs, 0.5, nil))
	if err != nil {
		t.Fatal(err)
	}
	decG, err := greedyS.Schedule(testCtx(t, env, jobs, 0.5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(decM) != len(decG) {
		t.Fatalf("decision counts differ: %d vs %d", len(decM), len(decG))
	}
	// With identical jobs and uncontended capacity, the MILP optimum is
	// separable and must equal the greedy argmin.
	byID := map[int]region.ID{}
	for _, d := range decM {
		byID[d.Job.ID] = d.Region
	}
	for _, d := range decG {
		if byID[d.Job.ID] != d.Region {
			t.Errorf("job %d: MILP chose %s, greedy chose %s (should coincide when capacity is slack)",
				d.Job.ID, byID[d.Job.ID], d.Region)
		}
	}
}

func TestEndToEndSavingsPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*4, 77)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: testStart, Duration: 12 * time.Hour, JobsPerDay: 6000,
		Regions: env.IDs(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := cluster.Run(cluster.Config{Env: env, Tolerance: 0.5}, baselineSched{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ww, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Env: env, Tolerance: 0.5}, ww, jobs)
	if err != nil {
		t.Fatal(err)
	}
	carbonSaving := 1 - float64(res.TotalCarbon())/float64(base.TotalCarbon())
	waterSaving := 1 - float64(res.TotalWater())/float64(base.TotalWater())
	if carbonSaving <= 0.05 {
		t.Errorf("carbon saving = %.1f%%, want clearly positive", 100*carbonSaving)
	}
	if waterSaving <= 0 {
		t.Errorf("water saving = %.1f%%, want positive", 100*waterSaving)
	}
	if res.ViolationRate() > 0.05 {
		t.Errorf("violation rate = %.2f%%, want < 5%%", 100*res.ViolationRate())
	}
	if math.Abs(res.MeanNormalizedService()-1) > 0.5 {
		t.Errorf("mean normalized service = %.2f, implausible", res.MeanNormalizedService())
	}
}

// baselineSched avoids importing internal/sched (cycle-free test baseline).
type baselineSched struct{}

func (baselineSched) Name() string { return "baseline" }
func (baselineSched) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	out := make([]cluster.Decision, 0, len(ctx.Jobs))
	for _, pj := range ctx.Jobs {
		out = append(out, cluster.Decision{Job: pj.Job, Region: pj.Job.Home})
	}
	return out, nil
}

func TestPerfWeightExtensionKeepsJobsHome(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.PerfWeight = 10 // performance dominates: any migration latency loses
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(15, region.Mumbai)
	dec, err := s.Schedule(testCtx(t, env, jobs, 1.0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if d.Region != region.Mumbai {
			t.Errorf("job %d migrated to %s despite dominant perf weight", d.Job.ID, d.Region)
		}
	}
}

func TestCostWeightExtensionPrefersCheapRegion(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.CostWeight = 10 // cost dominates: Oregon has the lowest price
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(15, region.Milan)
	dec, err := s.Schedule(testCtx(t, env, jobs, 1.0, nil))
	if err != nil {
		t.Fatal(err)
	}
	toOregon := 0
	for _, d := range dec {
		if d.Region == region.Oregon {
			toOregon++
		}
	}
	if toOregon < len(dec)*3/4 {
		t.Errorf("only %d/%d jobs went to cheapest Oregon under dominant cost weight", toOregon, len(dec))
	}
}

// unprimedFeed fails one region's readings before an instant, as a live
// feed does for a region it has not fetched yet.
type unprimedFeed struct {
	feed.Provider
	key   string
	until time.Time
}

func (p unprimedFeed) At(key string, t time.Time) (feed.Sample, error) {
	if key == p.key && t.Before(p.until) {
		return feed.Sample{}, errors.New("region not primed")
	}
	return p.Provider.At(key, t)
}

// A round in which a region has no snapshot adds nothing to its history: its
// CO2ref is the mean of the rounds that did read it, not diluted by zeros
// that would rank it the cleanest region.
func TestHistoryLearnerSkipsRegionWithoutSnapshot(t *testing.T) {
	primed := testStart.Add(4 * time.Hour)
	env, err := region.NewEnvironmentWithProvider(region.Defaults(), energy.Table, testStart, 24*5,
		unprimedFeed{testEnv(t).Provider(), string(region.Mumbai), primed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var readings []float64
	for round := range 7 {
		ctx := testCtx(t, env, nil, 0.5, nil)
		ctx.Now = testStart.Add(time.Duration(round) * time.Hour)
		s.updateHistory(ctx, env.IDs())
		if ctx.Now.Before(primed) {
			continue
		}
		maxCI := 0.0
		for _, id := range env.IDs() {
			snap, ok := env.Snapshot(id, ctx.Now)
			if !ok {
				t.Fatalf("no snapshot for %s at %v", id, ctx.Now)
			}
			maxCI = max(maxCI, float64(snap.CI))
		}
		snap, _ := env.Snapshot(region.Mumbai, ctx.Now)
		readings = append(readings, float64(snap.CI)/maxCI)
	}
	if n := len(s.histCarbon[region.Mumbai]); n != len(readings) {
		t.Errorf("Mumbai's window holds %d entries, want its %d real readings", n, len(readings))
	}
	if n := len(s.histCarbon[region.Zurich]); n != 7 {
		t.Errorf("Zurich's window holds %d entries, want 7", n)
	}
	if got, want := s.refCarbon(region.Mumbai), meanOf(readings); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mumbai's CO2ref = %g, want %g, the mean of its %d real readings", got, want, len(readings))
	}
}

// Both controllers check Eq. 11 against the tolerance a job has left: a
// job that leaves its home region when fresh stays home, under the MILP
// and under the greedy controller alike, once its wait has used up more
// tolerance than any move needs.
func TestControllersUseRemainingTolerance(t *testing.T) {
	env := testEnv(t)
	net := transfer.New()
	pkg := workload.PackageMB("canneal")
	greedyCfg := DefaultConfig()
	greedyCfg.GreedyController = true
	place := func(cfg Config, job *trace.Job) region.ID {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := s.Schedule(testCtx(t, env, []*trace.Job{job}, 0.5, nil))
		if err != nil || len(dec) != 1 {
			t.Fatalf("scheduling job from %s: %d decisions, err %v", job.Home, len(dec), err)
		}
		return dec[0].Region
	}
	for _, home := range env.IDs() {
		// Every move costs at most a quarter of the run time, well inside
		// the 50% tolerance.
		minLat, maxLat := time.Duration(math.MaxInt64), time.Duration(0)
		for _, id := range env.IDs() {
			if id != home {
				lat := net.Latency(home, id, pkg)
				minLat, maxLat = min(minLat, lat), max(maxLat, lat)
			}
		}
		est := 4 * maxLat
		job := &trace.Job{ID: 0, Submit: testStart, Benchmark: "canneal", Home: home,
			Duration: est, Energy: 5, EstDuration: est, EstEnergy: 5}
		if place(DefaultConfig(), job) == home || place(greedyCfg, job) == home {
			continue // home is the cheapest region anyway
		}
		// Waiting leaves half the cheapest move's ratio of tolerance.
		waited := time.Duration(0.5*float64(est)) - minLat/2
		job.Submit = testStart.Add(-waited)
		if got := place(DefaultConfig(), job); got != home {
			t.Errorf("MILP moved a job from %s to %s with too little tolerance left", home, got)
		}
		if got := place(greedyCfg, job); got != home {
			t.Errorf("greedy controller moved a job from %s to %s with too little tolerance left", home, got)
		}
		return
	}
	t.Fatal("no home region from which a fresh job moves: the test checks nothing")
}
