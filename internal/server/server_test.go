package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
)

var testStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func testEnv(t testing.TB) *region.Environment {
	t.Helper()
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*3, 21)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func newScheduler(t testing.TB) *core.Scheduler {
	t.Helper()
	ww, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ww
}

// testShard builds a one-shard service over cfg and returns its shard:
// the engine the WAL and cursor tests drive directly.
func testShard(tb testing.TB, cfg Config) *shard {
	tb.Helper()
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv.shards[0]
}

// genTrace produces a millisecond-quantized trace (as the CSV wire format
// carries) so JSON float-seconds round exactly.
func genTrace(t testing.TB, env *region.Environment, jobsPerDay float64, hours int) []*trace.Job {
	t.Helper()
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: testStart, Duration: time.Duration(hours) * time.Hour,
		JobsPerDay: jobsPerDay, Regions: env.IDs(), DurationScale: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	jobs, err = trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// decisionsPage decodes the GET /v1/decisions reply with typed entries
// (the wire shape is server.DecisionsResponse).
type decisionsPage struct {
	Decisions []Decision `json:"decisions"`
	Next      uint64     `json:"next"`
}

func specFor(j *trace.Job) JobSpec {
	id := j.ID
	return JobSpec{
		ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
		DurationSec:    j.Duration.Seconds(),
		EnergyKWh:      float64(j.Energy),
		EstDurationSec: j.EstDuration.Seconds(),
		EstEnergyKWh:   float64(j.EstEnergy),
	}
}

// TestAcceleratedReplayMatchesOfflineRun is the deterministic equivalence
// acceptance test: replaying a generated trace through the service's HTTP
// API in accelerated-time mode must produce exactly the placements,
// start/finish times, and footprints of the offline cluster.Run at the same
// cadence.
func TestAcceleratedReplayMatchesOfflineRun(t *testing.T) {
	const round = time.Minute
	env := testEnv(t)
	jobs := genTrace(t, env, 6000, 24)

	offEnv := testEnv(t)
	want, err := cluster.Run(cluster.Config{Env: offEnv, Tolerance: 0.5, Tick: round}, newScheduler(t), jobs)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: round,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Stop()

	// Queue the whole trace through POST /v1/jobs first, then start the
	// round loop: in accelerated mode the clock must not outrun the feed.
	const batch = 500
	for i := 0; i < len(jobs); i += batch {
		end := i + batch
		if end > len(jobs) {
			end = len(jobs)
		}
		specs := make([]JobSpec, 0, end-i)
		for _, j := range jobs[i:end] {
			specs = append(specs, specFor(j))
		}
		body, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit batch at %d: status %d, error %q", i, resp.StatusCode, sr.Error)
		}
	}
	srv.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := srv.Result()

	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcomes: server %d, offline %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		w, g := want.Outcomes[i], got.Outcomes[i]
		if w.Job.ID != g.Job.ID || w.Region != g.Region {
			t.Fatalf("outcome %d: server job %d->%s, offline job %d->%s",
				i, g.Job.ID, g.Region, w.Job.ID, w.Region)
		}
		if !w.Start.Equal(g.Start) || !w.Finish.Equal(g.Finish) {
			t.Fatalf("job %d: server [%v,%v], offline [%v,%v]",
				w.Job.ID, g.Start, g.Finish, w.Start, w.Finish)
		}
		if w.Compute != g.Compute || w.Comm != g.Comm {
			t.Fatalf("job %d: footprints differ: server %+v/%+v, offline %+v/%+v",
				w.Job.ID, g.Compute, g.Comm, w.Compute, w.Comm)
		}
		if w.Violated != g.Violated {
			t.Fatalf("job %d: violation flag differs", w.Job.ID)
		}
	}
	if len(got.Ticks) != len(want.Ticks) {
		t.Fatalf("rounds: server %d, offline %d", len(got.Ticks), len(want.Ticks))
	}
	for i := range want.Ticks {
		if !got.Ticks[i].At.Equal(want.Ticks[i].At) || got.Ticks[i].Decided != want.Ticks[i].Decided || got.Ticks[i].Batch != want.Ticks[i].Batch {
			t.Fatalf("round %d: server %+v, offline %+v", i, got.Ticks[i], want.Ticks[i])
		}
	}
	if len(got.Unscheduled) != 0 || len(want.Unscheduled) != 0 {
		t.Fatalf("unscheduled: server %d, offline %d", len(got.Unscheduled), len(want.Unscheduled))
	}
}

// TestOneShardResultKeepsDecisionOrder: a one-shard Result is the merge of
// one part, and that merge reorders nothing — outcomes and rounds come out
// in cluster.Run's order, element for element, which is what
// durable-replay's in-order digest against cluster.Run relies on.
func TestOneShardResultKeepsDecisionOrder(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 12)
	want, err := cluster.Run(cluster.Config{Env: testEnv(t), Tolerance: 0.5, Tick: time.Minute}, newScheduler(t), jobs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got := srv.Result()
	if len(got.Outcomes) != len(want.Outcomes) || len(got.Ticks) != len(want.Ticks) {
		t.Fatalf("service %d outcomes over %d rounds, offline %d over %d",
			len(got.Outcomes), len(got.Ticks), len(want.Outcomes), len(want.Ticks))
	}
	for i, w := range want.Outcomes {
		if g := got.Outcomes[i]; g.Job.ID != w.Job.ID || g.Region != w.Region || !g.Start.Equal(w.Start) ||
			g.Compute != w.Compute || g.Comm != w.Comm || g.Violated != w.Violated {
			t.Fatalf("outcome %d: service job %d -> %s, offline job %d -> %s", i, g.Job.ID, g.Region, w.Job.ID, w.Region)
		}
	}
	for i, w := range want.Ticks {
		if g := got.Ticks[i]; !g.At.Equal(w.At) || g.Batch != w.Batch || g.Decided != w.Decided {
			t.Fatalf("round %d: service %+v, offline %+v", i, g, w)
		}
	}
}

func TestBackpressure(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5,
		Round: time.Minute, QueueCap: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue only fills.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(spec JobSpec) int {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode
	}
	spec := JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(time.Hour)}
	for i := 0; i < 3; i++ {
		if code := post(spec); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if code := post(spec); code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d, want 429", code)
	}
	st := srv.Status()
	if st.Accepted != 3 || st.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d", st.Accepted, st.Rejected)
	}
}

func TestSubmitValidation(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Every rejection path returns its typed cause, so gateways map them
	// to distinct HTTP statuses with errors.Is instead of string matching.
	cases := []struct {
		name string
		spec JobSpec
		want error
	}{
		{"unknown benchmark", JobSpec{Benchmark: "nope", Home: region.Zurich, Submit: testStart}, ErrUnknownBenchmark},
		{"unknown region", JobSpec{Benchmark: "canneal", Home: "atlantis", Submit: testStart}, ErrUnknownRegion},
		{"before horizon", JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(-time.Hour)}, ErrOutsideHorizon},
		{"after horizon", JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(100 * 24 * time.Hour)}, ErrOutsideHorizon},
	}
	for _, c := range cases {
		if _, err := srv.Submit(c.spec); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// Duplicate id: an identical retry is idempotent (same id back, no new
	// job), a different spec under the same id is the conflict.
	id := 7
	if _, err := srv.Submit(JobSpec{ID: &id, Benchmark: "canneal", Home: region.Zurich, Submit: testStart}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Submit(JobSpec{ID: &id, Benchmark: "canneal", Home: region.Zurich, Submit: testStart})
	if err != nil || got != id {
		t.Errorf("idempotent retry: got (%d, %v), want (%d, nil)", got, err, id)
	}
	if st := srv.Status(); st.Accepted != 1 {
		t.Errorf("idempotent retry accepted a new job: accepted = %d, want 1", st.Accepted)
	}
	if _, err := srv.Submit(JobSpec{ID: &id, Benchmark: "swaptions", Home: region.Zurich, Submit: testStart}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("conflicting spec under same id: got %v, want ErrDuplicateID", err)
	}
	srv.Stop()
	if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart}); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after stop: got %v, want ErrStopped", err)
	}
}

// TestRegionPartitionShard covers a shard over a partition: it schedules
// only over its regions and rejects submissions homed outside them with
// ErrUnknownRegion.
func TestRegionPartitionShard(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{
		Env:          env,
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) { return newScheduler(t), nil },
		Shards:       2, ShardMap: map[region.ID]int{region.Zurich: 0, region.Milan: 0, region.Madrid: 1, region.Oregon: 1, region.Mumbai: 1},
		Tolerance: 0.5, Round: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	sh := srv.shards[0]
	if got := sh.Status().Regions; len(got) != 2 || got[0] != region.Zurich || got[1] != region.Milan {
		t.Fatalf("shard regions = %v", got)
	}
	out := []Admission{{ID: 1, sh: sh}} // routed to shard 0 by hand, past the service's router
	sh.admit([]JobSpec{{Benchmark: "canneal", Home: region.Mumbai, Submit: testStart}}, out, false)
	if err := out[0].Err; !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("out-of-partition home: got %v, want ErrUnknownRegion", err)
	}
	if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: region.Milan, Submit: testStart}); err != nil {
		t.Fatalf("in-partition home rejected: %v", err)
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, d := range srv.Decisions(0, 0) {
		if d.Region != region.Zurich && d.Region != region.Milan {
			t.Fatalf("shard placed a job in %s, outside its partition", d.Region)
		}
	}
	if st := sh.Status(); len(st.Free) != 2 {
		t.Fatalf("shard status reports %d regions free, want 2", len(st.Free))
	}
}

// shardPage reads a page of shard sh's decision log with its cursor.
func shardPage(sh *shard, since uint64, limit int) ([]Decision, Cursor) {
	var page []Decision
	cur := sh.readDecisions(func(log *Ring[decRecord]) { page = ringPage(log, sh.regions, since, limit) })
	return page, cur
}

// TestDecisionsPageCursor pins the cursor a shard exports to the merge:
// Seq/Oldest track the ring, Frontier the round clock, Idle the drained
// state.
func TestDecisionsPageCursor(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5,
		Round: time.Minute, DecisionLogCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	sh := srv.shards[0]
	if _, cur := shardPage(sh, 0, 0); cur.Seq != 0 || cur.Oldest != 0 || !cur.Idle {
		t.Fatalf("empty-server cursor %+v", cur)
	}
	for i := 0; i < 6; i++ {
		spec := JobSpec{Benchmark: "canneal", Home: region.Oregon, Submit: testStart.Add(time.Duration(i) * time.Second)}
		if _, err := srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, cur := shardPage(sh, 0, 0); cur.Idle || !cur.Frontier.Before(testStart) {
		// Round 0 has not run, so its decisions (Round == Env.Start) are
		// not final yet: the frontier must lie strictly before them, or a
		// fleet merge emits another shard's round-0 decisions too early.
		t.Fatalf("pre-first-round cursor %+v", cur)
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ds, cur := shardPage(sh, 0, 0)
	if cur.Seq != 6 || !cur.Idle {
		t.Fatalf("drained cursor %+v", cur)
	}
	// Ring cap 4: seqs 1-2 evicted, Oldest reflects it, and the page
	// starts past the loss — what the fleet merge counts as Lost.
	if cur.Oldest != 3 {
		t.Fatalf("oldest %d, want 3 after eviction", cur.Oldest)
	}
	if len(ds) != 4 || ds[0].Seq != 3 {
		t.Fatalf("page %d decisions starting at %d", len(ds), ds[0].Seq)
	}
	if cur.Frontier.Before(ds[len(ds)-1].Round) {
		t.Fatalf("frontier %v behind last logged round %v", cur.Frontier, ds[len(ds)-1].Round)
	}
	if st := sh.Status(); st.LastSeq != 6 {
		t.Fatalf("status last_seq %d, want 6", st.LastSeq)
	}
}

func TestDecisionsPagingAndStatusAndMetrics(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()
	defer srv.Stop()
	for i := 0; i < 10; i++ {
		spec := JobSpec{Benchmark: "canneal", Home: region.Oregon, Submit: testStart.Add(time.Duration(i) * time.Second)}
		if _, err := srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var page decisionsPage
	resp, err := http.Get(ts.URL + PathDecisions + "?limit=4")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Decisions) != 4 {
		t.Fatalf("limit=4 returned %d decisions", len(page.Decisions))
	}
	total := len(page.Decisions)
	for page.Next > 0 && total < 100 {
		resp, err := http.Get(fmt.Sprintf("%s%s?since=%d", ts.URL, PathDecisions, page.Next))
		if err != nil {
			t.Fatal(err)
		}
		var next decisionsPage
		if err := json.NewDecoder(resp.Body).Decode(&next); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(next.Decisions) == 0 {
			break
		}
		total += len(next.Decisions)
		page = next
	}
	if total != 10 {
		t.Fatalf("paged through %d decisions, want 10", total)
	}

	var st Status
	resp, err = http.Get(ts.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Decisions != 10 || st.Scheduler != "waterwise" || st.Solver == nil {
		t.Fatalf("status: %+v", st)
	}
	if st.Feed == nil || st.Feed.Provider != "synthetic" || st.Feed.Stale {
		t.Fatalf("status feed health: %+v", st.Feed)
	}

	resp, err = http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, key := range []string{
		"waterwise_jobs_accepted_total{shard=\"0\"} 10",
		"waterwise_decisions_total{shard=\"0\"} 10",
		"waterwise_rounds_total",
		"waterwise_solver_wall_seconds_total",
		"waterwise_region_free_servers{region=\"oregon\",shard=\"0\"}",
		"# TYPE waterwise_feed_staleness_seconds gauge",
		"waterwise_feed_staleness_seconds{provider=\"synthetic\"} 0",
		"# TYPE waterwise_feed_fetch_errors_total counter",
		"waterwise_feed_stale{provider=\"synthetic\"} 0",
	} {
		if !strings.Contains(raw.String(), key) {
			t.Errorf("metrics missing %q:\n%s", key, raw.String())
		}
	}
}

// TestPacedLiveMode runs the service against the wall clock at high time
// scale: live submissions (no explicit submit instant) must flow through
// rounds fired by the timer.
func TestPacedLiveMode(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5,
		Round: time.Minute, TimeScale: 1200, // 20 simulated minutes per wall second
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	for i := 0; i < 5; i++ {
		if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: region.Milan}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Status().Decisions == 5 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Status().Decisions; got != 5 {
		t.Fatalf("decided %d of 5 live jobs", got)
	}
	for _, d := range srv.Decisions(0, 0) {
		if d.Region == "" || d.Finish.Before(d.Start) {
			t.Fatalf("bad decision %+v", d)
		}
	}
}

// TestHorizonAbandon covers the accelerated loop's termination guarantee:
// a job that can never be placed (all servers busy past the environment
// horizon) must be abandoned when the service clock reaches the horizon,
// not spun on forever.
func TestHorizonAbandon(t *testing.T) {
	regs := region.Defaults()
	for _, r := range regs {
		r.Servers = 1
	}
	env, err := region.NewEnvironment(regs, energy.Table, testStart, 24, 21)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// Six 200-hour jobs into five single-server regions: one can never run
	// before the 24-hour horizon ends.
	for i := 0; i < 6; i++ {
		id := i
		if _, err := srv.Submit(JobSpec{
			ID: &id, Benchmark: "canneal", Home: region.Zurich, Submit: testStart,
			DurationSec: 200 * 3600, EstDurationSec: 200 * 3600,
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain did not terminate: %v", err)
	}
	st := srv.Status()
	if st.Decisions != 5 || st.Unscheduled != 1 {
		t.Fatalf("decided=%d unscheduled=%d, want 5/1", st.Decisions, st.Unscheduled)
	}
	if got := len(srv.Result().Unscheduled); got != 1 {
		t.Fatalf("result unscheduled %d, want 1", got)
	}
}

// TestStopAbandonsQueue covers shutdown: jobs still queued at Stop land in
// Unscheduled and later submissions are refused.
func TestStopAbandonsQueue(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: nothing drains.
	for i := 0; i < 4; i++ {
		spec := JobSpec{Benchmark: "canneal", Home: region.Mumbai, Submit: testStart.Add(time.Hour)}
		if _, err := srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: region.Mumbai, Submit: testStart}); err == nil {
		t.Error("submit after stop accepted")
	}
	if got := len(srv.Result().Unscheduled); got != 4 {
		t.Errorf("unscheduled %d, want 4", got)
	}
}

// TestHTTPSubmitAcceptedPrefix pins POST /v1/jobs' accepted-prefix
// contract: an array rejected at index k — here a duplicate id, so 409 —
// admits exactly its first k jobs and nothing after the rejection, and
// Accepted lists those k ids. On two shards the array alternates between
// them, so a later job on the other shard must not slip in either.
func TestHTTPSubmitAcceptedPrefix(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := New(Config{Env: testEnv(t), NewScheduler: coreFactory(t), Shards: shards, Tolerance: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			parts := srv.Partitions()
			const k = 3
			specs := make([]JobSpec, 6)
			for i := range specs {
				id := i + 1
				specs[i] = JobSpec{ID: &id, Benchmark: "canneal", Home: parts[i%shards][0], Submit: testStart}
			}
			taken := 100
			first := specs[k]
			first.ID = &taken
			if _, err := srv.Submit(first); err != nil {
				t.Fatal(err)
			}
			specs[k].ID, specs[k].Benchmark = &taken, "swaptions" // same id, another spec
			before := srv.Status().Accepted

			body, err := json.Marshal(specs)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("status %d, want 409 (%s)", resp.StatusCode, reply.Error)
			}
			if len(reply.Accepted) != k {
				t.Fatalf("accepted %v, want the %d ids before the rejection", reply.Accepted, k)
			}
			for i, id := range reply.Accepted {
				if id != i+1 {
					t.Fatalf("accepted %v, want ids 1..%d", reply.Accepted, k)
				}
			}
			if got := srv.Status().Accepted - before; got != k {
				t.Fatalf("the request admitted %d jobs, want %d", got, k)
			}
		})
	}
}

// BenchmarkSubmitBatch times admission at frame sizes 1 and 256, in memory
// and durable: one SubmitBatch per op, with ns/job alongside. The server
// is rebuilt off the clock every 64k jobs, so its queue stays bounded.
func BenchmarkSubmitBatch(b *testing.B) {
	env := testEnv(b)
	homes := env.IDs()
	for _, durable := range []bool{false, true} {
		for _, frame := range []int{1, 256} {
			mode := "mem"
			if durable {
				mode = "durable"
			}
			b.Run(fmt.Sprintf("frame=%d/%s", frame, mode), func(b *testing.B) {
				fresh := func() *Server {
					cfg := Config{Env: env, Scheduler: newScheduler(b), Tolerance: 0.5, QueueCap: 1 << 17}
					if durable {
						cfg.DataDir = b.TempDir()
					}
					srv, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					return srv
				}
				specs := make([]JobSpec, frame)
				for i := range specs {
					specs[i] = JobSpec{Benchmark: "canneal", Home: homes[i%len(homes)],
						Submit: testStart.Add(time.Duration(i) * time.Second)}
				}
				srv, out, queued := fresh(), []Admission(nil), 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if queued+frame > 1<<16 {
						b.StopTimer()
						srv.Stop()
						srv, queued = fresh(), 0
						b.StartTimer()
					}
					out = srv.SubmitBatch(specs, out)
					if out[0].Err != nil {
						b.Fatal(out[0].Err)
					}
					queued += frame
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/job")
				srv.Stop()
			})
		}
	}
}

// TestOnRoundContract pins Config.OnRound's contract: each shard's hook
// sees its completed-round counts 1, 2, 3, … with no gap; it runs after
// the round is published, so a one-shard service's Decisions already
// holds the round's decisions; and a Submit from inside the hook is
// admitted without deadlock and scheduled like any other job.
func TestOnRoundContract(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env := testEnv(t)
			jobs := genTrace(t, env, 2000, 12)
			late := specFor(jobs[0])
			lateID := 1 << 20
			late.ID, late.Submit = &lateID, testStart.Add(6*time.Hour)

			var (
				srv     *Server
				mu      sync.Mutex
				counts  = make([][]uint64, shards)
				seen    uint64 // decisions visible at the previous hook (one shard)
				lateErr = errors.New("never submitted")
				faults  []string
			)
			onRound := func(shard int, rounds uint64) {
				mu.Lock()
				defer mu.Unlock()
				counts[shard] = append(counts[shard], rounds)
				if shards == 1 {
					st := srv.ShardStatus(shard)
					ds := srv.Decisions(0, 0)
					if uint64(len(ds)) != st.Decisions {
						faults = append(faults, fmt.Sprintf("round %d: Decisions holds %d, the shard decided %d", rounds, len(ds), st.Decisions))
					} else if uint64(len(ds)) > seen && !ds[len(ds)-1].Round.Equal(st.SimNow) {
						faults = append(faults, fmt.Sprintf("round %d: newest decision is from %v, the round ran at %v", rounds, ds[len(ds)-1].Round, st.SimNow))
					}
					seen = uint64(len(ds))
				}
				if shard == 0 && rounds == 1 {
					_, lateErr = srv.Submit(late)
				}
			}
			var err error
			srv, err = New(Config{Env: env, Shards: shards, NewScheduler: coreFactory(t),
				Tolerance: 0.5, Round: 15 * time.Minute, OnRound: onRound})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()
			for _, j := range jobs {
				if _, err := srv.Submit(specFor(j)); err != nil {
					t.Fatal(err)
				}
			}
			srv.Start()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			srv.Stop()
			mu.Lock()
			defer mu.Unlock()
			if lateErr != nil {
				t.Fatalf("Submit from inside the hook: %v", lateErr)
			}
			for _, f := range faults {
				t.Error(f)
			}
			for i, c := range counts {
				want := srv.ShardStatus(i).Rounds
				if uint64(len(c)) != want {
					t.Errorf("shard %d: hook ran %d times over %d rounds", i, len(c), want)
				}
				for k, n := range c {
					if n != uint64(k)+1 {
						t.Fatalf("shard %d: hook call %d saw round count %d, want %d", i, k, n, k+1)
					}
				}
			}
			found := false
			for _, d := range srv.Decisions(0, 0) {
				found = found || d.JobID == lateID
			}
			if !found {
				t.Error("the job submitted from the hook was never decided")
			}
		})
	}
}
