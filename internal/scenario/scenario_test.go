package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/tsdb"
)

// TestBundledSpecsParse pins the bundled catalogue: every embedded spec
// must validate, and the canonical four fault exercises must be present.
func TestBundledSpecsParse(t *testing.T) {
	specs, err := Bundled()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"feed-outage": false, "feed-429-storm": false,
		"shard-kill": false, "flash-crowd": false, "disk-degraded": false,
	}
	for _, s := range specs {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("bundled catalogue is missing scenario %q", name)
		}
	}
	if _, err := Lookup("shard-kill"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup of an unknown scenario succeeded")
	}
}

// TestSpecValidation pins the guard rails: unknown fields, unknown fault
// kinds, and a kill with a restart window are all errors (the service
// restarts a killed shard itself), and a kill implies a durable run.
func TestSpecValidation(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","slso":{}}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","faults":[{"kind":"meteor","at_round":2}]}`)); err == nil {
		t.Error("unknown fault kind accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","faults":[{"kind":"kill_shard","at_round":2,"rounds":3,"shard":0}]}`)); err == nil {
		t.Error("kill with a restart window accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","supervisor":true}`)); err == nil {
		t.Error("the retired supervisor field accepted")
	}
	kill, err := Parse([]byte(`{"name":"x","faults":[{"kind":"kill_shard","at_round":2,"shard":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !kill.Durable {
		t.Error("kill_shard did not imply a durable run")
	}
	s, err := Parse([]byte(`{"name":"x","faults":[{"kind":"slow_fsync","at_round":2,"rounds":2,"delay":"1ms"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable {
		t.Error("slow_fsync did not imply a durable run")
	}
	if _, err := Parse([]byte(`{"name":"x","pacing":"2ms"}`)); err == nil {
		t.Error("the retired pacing field accepted")
	}
}

// TestSpecHoursFitDuration: a span of hours is multiplied into a
// time.Duration for the trace span and the fault-onset bound, so a spec
// whose hours overflow it is refused rather than wrapped.
func TestSpecHoursFitDuration(t *testing.T) {
	for _, tc := range []struct {
		hours int
		ok    bool
	}{{maxHours, true}, {maxHours + 1, false}, {math.MaxInt64, false}} {
		s, err := Parse([]byte(fmt.Sprintf(`{"name":"x","hours":%d}`, tc.hours)))
		if (err == nil) != tc.ok {
			t.Errorf("hours %d: err %v, want accepted %t", tc.hours, err, tc.ok)
		}
		if err == nil && time.Duration(s.Hours)*time.Hour/time.Hour != time.Duration(s.Hours) {
			t.Errorf("hours %d accepted, and its span overflows", tc.hours)
		}
	}
}

// TestRetryAfterWholeSeconds: HTTP's Retry-After carries whole seconds
// only, and the chaos transport advertises the whole seconds it is given,
// so a sub-second retry_after would silently send no header at all.
func TestRetryAfterWholeSeconds(t *testing.T) {
	for _, ra := range []string{`"25ms"`, `"1500ms"`, `"-1s"`} {
		spec := `{"name":"x","live_feed":true,"faults":[{"kind":"feed_throttle","at_round":2,"rounds":2,"retry_after":` + ra + `}]}`
		if _, err := Parse([]byte(spec)); err == nil {
			t.Errorf("retry_after %s accepted", ra)
		}
	}
	s, err := Parse([]byte(`{"name":"x","live_feed":true,"faults":[{"kind":"feed_throttle","at_round":2,"rounds":2,"retry_after":"2s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Faults[0].RetryAfter.Std(); got != 2*time.Second {
		t.Errorf("retry_after parsed as %s, want 2s", got)
	}
}

// TestWindowAssertionValidation pins the windowed-SLO grammar's guard
// rails: bad kinds, dangling alert references, and malformed ranges are
// all spec errors, and quantile defaults fill in.
func TestWindowAssertionValidation(t *testing.T) {
	bad := []string{
		`{"name":"x","slos":{"windows":[{"kind":"percentile"}]}}`,
		`{"name":"x","slos":{"windows":[{"kind":"quantile","max_ms":10}]}}`,
		`{"name":"x","slos":{"windows":[{"kind":"quantile","series":"s"}]}}`,
		`{"name":"x","slos":{"windows":[{"kind":"quantile","series":"s","max_ms":10,"q":1.5}]}}`,
		`{"name":"x","slos":{"windows":[{"kind":"alert","alert":"availability-fast"}]}}`,
		`{"name":"x","slos":{"windows":[{"kind":"alert","alert":"availability/fast"}]}}`,
		`{"name":"x","objectives":[{"name":"availability","target":0.99,"bad":"b","total":"t"}],
		  "slos":{"windows":[{"kind":"alert","alert":"availability/fast","fires_between":[9,3]}]}}`,
		`{"name":"x","objectives":[{"name":"availability","target":0.99,"bad":"b","total":"t"}],
		  "slos":{"windows":[{"kind":"alert","alert":"availability/nope"}]}}`,
		`{"name":"x","objectives":[{"name":"bad-objective","target":2,"bad":"b","total":"t"}]}`,
	}
	for _, spec := range bad {
		if _, err := Parse([]byte(spec)); err == nil {
			t.Errorf("invalid spec accepted: %s", spec)
		}
	}
	s, err := Parse([]byte(`{"name":"x",
		"objectives":[{"name":"availability","target":0.99,"bad":"b","total":"t"}],
		"slos":{"windows":[
			{"kind":"quantile","series":"s","max_ms":10},
			{"kind":"alert","alert":"availability/fast","fires_between":[3,9],"clears_by":12}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	w := s.SLOs.Windows[0]
	if w.Q != 0.99 || w.Window != 5 {
		t.Errorf("quantile defaults not filled: %+v", w)
	}
	// The alert reference resolves against the objective's defaulted rules.
	if len(s.Objectives[0].Rules) == 0 {
		t.Error("objective rules not defaulted")
	}
}

// equivSpec is the no-fault scenario the equivalence test runs: every
// injection hook present and armed at zero — chaos wrapper, fsync-delay
// hook, the round hook, and the flight recorder with SLO objectives
// scraping every round — but nothing ever fired.
var equivSpec = Spec{
	Name: "equivalence-probe", Seed: 5, Shards: 2, Hours: 4,
	Round: Duration(15 * time.Minute), JobsPerDay: 1500,
	Objectives: []tsdb.Objective{{Name: "availability", Target: 0.999,
		Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total"}},
}

// TestScenarioNoFaultEquivalence is the harness's own correctness bar: a
// scenario with an empty fault schedule — but with every injection hook
// installed (chaos-wrapped provider, fsync-delay hook at zero, round
// hook, flight recorder) — must be decision-for-decision
// identical to a plain replay of the same trace with none of those
// layers present. Injection at zero is exactly free, or the harness's
// fault measurements mean nothing.
func TestScenarioNoFaultEquivalence(t *testing.T) {
	_, got, err := runFull(equivSpec, RunOptions{Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("scenario run produced no decisions")
	}

	// The plain replay: same environment parameters, same trace, no
	// chaos wrapper, no hooks.
	spec, err := equivSpec.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, Epoch, spec.Hours, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := server.New(server.Config{
		Env: env, Shards: spec.Shards, Tolerance: 0.5, Round: spec.Round.Std(),
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) {
			return core.New(core.DefaultConfig())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		id := j.ID
		if _, err := fl.Submit(server.JobSpec{
			ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
			DurationSec: j.Duration.Seconds(), EnergyKWh: float64(j.Energy),
			EstDurationSec: j.EstDuration.Seconds(), EstEnergyKWh: float64(j.EstEnergy),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	fl.Stop()
	want := fl.Decisions(0, 0)

	if len(got) != len(want) {
		t.Fatalf("scenario run emitted %d decisions, plain replay %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.JobID != w.JobID || g.Region != w.Region ||
			!g.Round.Equal(w.Round) || !g.Start.Equal(w.Start) || !g.Finish.Equal(w.Finish) ||
			g.CarbonG != w.CarbonG || g.WaterL != w.WaterL ||
			g.Shard != w.Shard || g.ShardSeq != w.ShardSeq {
			t.Fatalf("decision %d diverged:\nscenario: %+v\nplain:    %+v", i, g, w)
		}
	}
}

// TestScenarioShardKillFailover runs the bundled shard-kill scenario:
// the service — not the harness — must bring the killed shard back, and
// every SLO (dense seqs, no lost decisions, >= 1 restart) must hold.
func TestScenarioShardKillFailover(t *testing.T) {
	spec, err := Lookup("shard-kill")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("shard-kill scenario failed its SLOs: %+v", rep.Checks)
	}
	if rep.Restarts < 1 {
		t.Fatalf("service performed %d restarts, want >= 1", rep.Restarts)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("fault log %v, want the one kill", rep.Faults)
	}
}

// TestScenarioLiveFeedOutage runs the bundled feed-outage scenario: a
// live provider fetching over the chaos transport loses its upstream
// mid-run. Staleness must rise, the forecast fallback must serve, and
// health must clear after recovery — the full degradation ladder driven
// by a scenario fault schedule rather than a bespoke test server.
func TestScenarioLiveFeedOutage(t *testing.T) {
	spec, err := Lookup("feed-outage")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("feed-outage scenario failed its SLOs: %+v", rep.Checks)
	}
	if rep.MaxFeedStalenessSeconds <= 0 {
		t.Error("outage never registered as staleness")
	}
	if rep.ForecastServed < 1 {
		t.Error("outage never pushed the feed to its forecast fallback")
	}
}

// TestPacedFeederSurvivesIdleFleet: with arrivals sparser than the
// feeder's two-round look-ahead the fleet drains and parks between jobs,
// and its round count stops short of the next arrival. The paced feeder
// must keep feeding anyway; keyed to the round count alone it waited
// forever.
func TestPacedFeederSurvivesIdleFleet(t *testing.T) {
	spec := Spec{Name: "sparse-paced", JobsPerDay: 40, Submit: SubmitPaced,
		SLOs: SLOSpec{RequireDenseSeqs: true, RequireNoLost: true, MinDecisions: 5}}
	rep, err := Run(spec, RunOptions{Timeout: 30 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.RejectedSubmits != 0 {
		t.Fatalf("sparse paced run: %d rejected submits, checks %+v", rep.RejectedSubmits, rep.Checks)
	}
}

// TestPacedScenarioIsDeterministic: paced submission runs on each shard's
// own round clock, so which submissions find a full queue depends only on
// the shard's state, never on how threads interleave. Two runs of the
// flash crowd must submit, reject and decide exactly alike, down to the
// merged stream (DecidedWall, a wall-clock stamp, aside).
func TestPacedScenarioIsDeterministic(t *testing.T) {
	spec, err := Lookup("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	first, firstDecs, err := runFull(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.RejectedSubmits == 0 {
		t.Fatal("the flash crowd rejected nothing: the queue never filled")
	}
	second, secondDecs, err := runFull(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Submitted != second.Submitted || first.RejectedSubmits != second.RejectedSubmits ||
		first.Decisions != second.Decisions || len(firstDecs) != len(secondDecs) {
		t.Fatalf("runs differ: submitted %d vs %d, rejected %d vs %d, decisions %d vs %d, merged %d vs %d",
			first.Submitted, second.Submitted, first.RejectedSubmits, second.RejectedSubmits,
			first.Decisions, second.Decisions, len(firstDecs), len(secondDecs))
	}
	for i := range firstDecs {
		a, b := firstDecs[i], secondDecs[i]
		a.DecidedWall, b.DecidedWall = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("merged decision %d differs:\nfirst:  %+v\nsecond: %+v", i, a, b)
		}
	}
}

// TestBundledScenariosPass sweeps the rest of the bundled catalogue —
// the 429 storm, the flash crowd, the degraded disk — asserting every
// spec passes its own SLOs and emits a comparable report.
func TestBundledScenariosPass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_SCENARIOS.json")
	for _, name := range []string{"feed-429-storm", "flash-crowd", "disk-degraded"} {
		t.Run(name, func(t *testing.T) {
			spec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(spec, RunOptions{DataDir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass {
				t.Fatalf("scenario %s failed its SLOs: %+v", name, rep.Checks)
			}
			if err := WriteReports(path, *rep); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteReports pins the report-file merge semantics: same-name
// replaces, new names append, output sorted by scenario.
func TestWriteReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_SCENARIOS.json")
	if err := WriteReports(path,
		Report{Scenario: "zeta", Pass: true},
		Report{Scenario: "alpha", Pass: false}); err != nil {
		t.Fatal(err)
	}
	if err := WriteReports(path, Report{Scenario: "alpha", Pass: true}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reps []Report
	if err := json.Unmarshal(b, &reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Scenario != "alpha" || reps[1].Scenario != "zeta" {
		t.Fatalf("merged reports: %+v", reps)
	}
	if !reps[0].Pass {
		t.Fatal("same-name report was not replaced")
	}
}
