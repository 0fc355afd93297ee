package waterwise

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(env.Regions()); got != 5 {
		t.Fatalf("default environment has %d regions, want 5", got)
	}
	jobs, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 1000 {
		t.Fatalf("trace too small: %d jobs", len(jobs))
	}
	if err := Validate(env, jobs); err != nil {
		t.Fatal(err)
	}

	base, err := env.Run(NewBaseline(), jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := env.Run(sched, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := CompareSavings(base, run)
	if err != nil {
		t.Fatal(err)
	}
	if sv.CarbonPct <= 0 {
		t.Errorf("carbon saving = %.1f%%, want positive", sv.CarbonPct)
	}
	dist := Distribution(run, env.Regions())
	total := 0.0
	for _, p := range dist {
		total += p
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("distribution sums to %.1f%%, want 100%%", total)
	}
}

func TestEnvironmentOptions(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{
		Regions:          []RegionID{Zurich, Mumbai},
		ServersPerRegion: 10,
		UseWRIWaterData:  true,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := env.Regions()
	if len(ids) != 2 || ids[0] != Zurich || ids[1] != Mumbai {
		t.Fatalf("regions = %v", ids)
	}
	snap, ok := env.Snapshot(Zurich, time.Date(2023, 7, 1, 12, 0, 0, 0, time.UTC))
	if !ok {
		t.Fatal("no snapshot")
	}
	if snap.CI <= 0 || snap.WaterIntensity() <= 0 {
		t.Errorf("snapshot not populated: %+v", snap)
	}
	if _, err := NewEnvironment(EnvironmentConfig{Regions: []RegionID{"atlantis"}}); err == nil {
		t.Error("unknown region accepted")
	}
}

// TestFeedRecordReplayEndToEnd drives the public feed surface: record a
// synthetic environment's feed to disk, rebuild the environment from the
// file with Source: FeedReplay, and a full scheduler run over the
// replayed world must reproduce the synthetic run decision for decision.
func TestFeedRecordReplayEndToEnd(t *testing.T) {
	synth, err := NewEnvironment(EnvironmentConfig{Seed: 4, HorizonHours: 48})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "feed.json")
	if err := synth.RecordFeed(path); err != nil {
		t.Fatal(err)
	}
	replay, err := NewEnvironment(EnvironmentConfig{Source: FeedReplay, FeedPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if h := replay.FeedHealth(); h.Provider != "replay" || h.Stale {
		t.Fatalf("replay feed health = %+v", h)
	}
	if h := synth.FeedHealth(); h.Provider != "synthetic" {
		t.Fatalf("synthetic feed health = %+v", h)
	}
	if replay.HorizonHours() != synth.HorizonHours() {
		t.Fatalf("replay horizon %d, synthetic %d", replay.HorizonHours(), synth.HorizonHours())
	}

	jobs, err := synth.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sched1, err := NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := synth.Run(sched1, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.Run(sched2, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("synthetic run decided %d jobs, replayed %d", len(want.Outcomes), len(got.Outcomes))
	}
	for i := range want.Outcomes {
		w, g := want.Outcomes[i], got.Outcomes[i]
		if w.Job.ID != g.Job.ID || w.Region != g.Region ||
			!w.Start.Equal(g.Start) || !w.Finish.Equal(g.Finish) ||
			w.Compute != g.Compute || w.Comm != g.Comm {
			t.Fatalf("outcome %d differs:\n synthetic %+v\n replayed  %+v", i, w, g)
		}
	}

	// A caller-chosen Start keeps the default horizon anchored to the
	// recorded end instead of extending past the data.
	mid := time.Date(2023, 7, 2, 0, 0, 0, 0, time.UTC) // 24h into the 48h recording
	narrowed, err := NewEnvironment(EnvironmentConfig{Source: FeedReplay, FeedPath: path, Start: mid})
	if err != nil {
		t.Fatal(err)
	}
	if narrowed.HorizonHours() != 24 {
		t.Errorf("mid-trace Start horizon = %d hours, want the remaining 24", narrowed.HorizonHours())
	}
	if _, err := NewEnvironment(EnvironmentConfig{
		Source: FeedReplay, FeedPath: path, Start: mid.AddDate(0, 0, 30),
	}); err == nil {
		t.Error("Start past the recorded span accepted")
	}

	// Misconfigurations are rejected up front.
	if _, err := NewEnvironment(EnvironmentConfig{Source: FeedReplay}); err == nil {
		t.Error("replay source without FeedPath accepted")
	}
	if _, err := NewEnvironment(EnvironmentConfig{Source: FeedLive}); err == nil {
		t.Error("live source without FeedURL accepted")
	}
	if _, err := NewEnvironment(EnvironmentConfig{Source: "psychic"}); err == nil {
		t.Error("unknown feed source accepted")
	}
}

func TestSchedulerConfigForwarding(t *testing.T) {
	if _, err := NewScheduler(SchedulerConfig{LambdaCarbon: 0.8, LambdaWater: 0.1}); err == nil {
		t.Error("invalid lambda split accepted")
	}
	s, err := NewScheduler(SchedulerConfig{LambdaCarbon: 0.7, LambdaWater: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "waterwise" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Regions: []RegionID{Zurich}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	good, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(env, good); err != nil {
		t.Fatal(err)
	}
	bad := *good[0]
	bad.Home = Mumbai // not in this environment
	if err := Validate(env, []*Job{&bad}); err == nil {
		t.Error("foreign home region accepted")
	}
	late := *good[0]
	late.Submit = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := Validate(env, []*Job{&late}); err == nil {
		t.Error("out-of-horizon submission accepted")
	}
	if err := Validate(nil, nil); err == nil {
		t.Error("nil environment accepted")
	}
}

func TestAlibabaTraceAPI(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := env.GenerateAlibabaTrace(TraceConfig{Days: 1, JobsPerDay: 2000, DurationScale: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 1200 {
		t.Fatalf("alibaba trace too small: %d", len(jobs))
	}
}

// TestOnlineServiceEndToEnd exercises the serving surface the README
// documents: build an environment, start the online service in
// accelerated mode, stream a generated trace through it, drain it, and
// check the decisions and status.
func TestOnlineServiceEndToEnd(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(env, ServerConfig{
		Tolerance: 0.5, Round: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	jobs, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		id := j.ID
		if _, err := srv.Submit(JobSpec{
			ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
			DurationSec:    j.Duration.Seconds(),
			EnergyKWh:      float64(j.Energy),
			EstDurationSec: j.EstDuration.Seconds(),
			EstEnergyKWh:   float64(j.EstEnergy),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	st := srv.Status()
	if st.Decisions != uint64(len(jobs)) {
		t.Fatalf("decided %d of %d jobs", st.Decisions, len(jobs))
	}
	// Rounds are solved as transportation problems: solve wall time
	// accrues, and no simplex runs.
	if st.Solver == nil || st.Solver.Wall <= 0 || st.Solver.SimplexIters != 0 {
		t.Errorf("solver accounting %+v: want solve wall time and no simplex iterations", st.Solver)
	}
	decisions := srv.Decisions(0, 0)
	if len(decisions) != len(jobs) {
		t.Fatalf("decision log has %d entries, want %d", len(decisions), len(jobs))
	}
	res := srv.Result()
	if res.TotalCarbon() <= 0 || res.TotalWater() <= 0 {
		t.Error("service result has no accounted footprint")
	}
}

// TestFleetEndToEnd exercises the sharded serving surface: build a
// two-shard service over the default environment, stream a trace through
// it by home region, drain, and check the merged decisions, aggregate
// status, and result.
func TestFleetEndToEnd(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewServer(env, ServerConfig{
		Tolerance: 0.5, Round: time.Minute, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()

	jobs, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		id := j.ID
		if _, err := fl.Submit(JobSpec{
			ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
			DurationSec:    j.Duration.Seconds(),
			EnergyKWh:      float64(j.Energy),
			EstDurationSec: j.EstDuration.Seconds(),
			EstEnergyKWh:   float64(j.EstEnergy),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	st := fl.Status()
	if st.Shards != 2 || st.Decisions != uint64(len(jobs)) || st.Lost != 0 {
		t.Fatalf("fleet status: %+v", st)
	}
	ds := fl.Decisions(0, 0)
	if len(ds) != len(jobs) {
		t.Fatalf("merged log has %d entries, want %d", len(ds), len(jobs))
	}
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("merged stream has a gap at %d", i)
		}
	}
	res := fl.Result()
	if len(res.Outcomes) != len(jobs) || res.TotalCarbon() <= 0 || res.TotalWater() <= 0 {
		t.Fatalf("fleet result: %d outcomes, carbon %v, water %v",
			len(res.Outcomes), res.TotalCarbon(), res.TotalWater())
	}
}

func TestAllComparatorsRun(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{
		NewBaseline(), NewRoundRobin(), NewLeastLoad(),
		NewCarbonGreedyOpt(), NewWaterGreedyOpt(), NewEcovisor(),
	} {
		res, err := env.Run(s, jobs, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(res.Outcomes) != len(jobs) {
			t.Errorf("%s completed %d/%d jobs", s.Name(), len(res.Outcomes), len(jobs))
		}
	}
}
