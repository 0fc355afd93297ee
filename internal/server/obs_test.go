package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/sched"
)

// statusDerived filters a parsed exposition down to the families rendered
// from a Status: everything but build info, the latency histograms and
// the feed block.
func statusDerived(fams map[string]*obs.PromFamily) map[string]*obs.PromFamily {
	out := make(map[string]*obs.PromFamily)
	for name, fam := range fams {
		if name == "waterwise_build_info" || fam.Type == "histogram" || strings.HasPrefix(name, "waterwise_feed_") {
			continue
		}
		out[name] = fam
	}
	return out
}

func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsLintAndObsEndpoints drives a real replay through the HTTP
// API and then checks the whole observability surface: /metrics passes
// the strict lint, the latency families carry the expected mass, and the
// trace endpoints serve round and job traces.
func TestMetricsLintAndObsEndpoints(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 3000, 6)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute,
		DataDir: t.TempDir(),
		Obs:     ObsConfig{JobSampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submit over HTTP so the ingest histogram records.
	specs := make([]JobSpec, 0, len(jobs))
	for _, j := range jobs {
		specs = append(specs, specFor(j))
	}
	body, _ := json.Marshal(specs)
	resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	drainServer(t, srv)
	decided := len(srv.Result().Outcomes)
	if decided == 0 {
		t.Fatal("replay placed no jobs")
	}

	// Full exposition must parse and lint strictly.
	resp, err = http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseProm(metrics)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if err := obs.LintProm(metrics); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, name := range []string{
		"waterwise_decision_latency_seconds",
		"waterwise_ingest_request_seconds",
		"waterwise_round_duration_seconds",
		"waterwise_round_stage_seconds",
	} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %s missing from /metrics", name)
		}
		if fam.Type != "histogram" {
			t.Fatalf("family %s is %q, want histogram", name, fam.Type)
		}
	}
	// A durable server with a solver-reporting scheduler serves every row
	// of the status table, documented exactly as the table says — and
	// nothing status-derived that the table does not define.
	live := statusDerived(fams)
	for _, f := range statusFamilies {
		fam := live[f.Name]
		if fam == nil {
			t.Errorf("table family %s missing from /metrics", f.Name)
			continue
		}
		if fam.Type != f.Type || fam.Help != f.Help {
			t.Errorf("%s served as %s %q, table says %s %q", f.Name, fam.Type, fam.Help, f.Type, f.Help)
		}
		delete(live, f.Name)
	}
	for name := range live {
		t.Errorf("/metrics serves %s, which no table row defines", name)
	}
	// The optional rows follow the status: no DataDir, no durability rows;
	// a scheduler without solver stats, no solver rows.
	for _, tc := range []struct {
		name    string
		sched   cluster.Scheduler
		dataDir string
		absent  []string // name prefixes that must not be served
		omitted int
	}{
		{"in-memory", newScheduler(t, false), "", []string{"waterwise_wal_", "waterwise_jobs_deduped_"}, 12},
		{"baseline scheduler", sched.NewBaseline(), t.TempDir(), []string{"waterwise_solver_"}, 5},
	} {
		other, err := New(Config{Env: env, Scheduler: tc.sched, Tolerance: 0.5, Round: time.Minute, DataDir: tc.dataDir})
		if err != nil {
			t.Fatal(err)
		}
		text := other.MetricsText()
		other.Stop()
		if err := obs.LintProm(text); err != nil {
			t.Fatalf("%s: /metrics fails lint: %v", tc.name, err)
		}
		parsed, _ := obs.ParseProm(text)
		got := statusDerived(parsed)
		for name := range got {
			for _, prefix := range tc.absent {
				if strings.HasPrefix(name, prefix) {
					t.Errorf("%s: serves %s", tc.name, name)
				}
			}
		}
		if want := len(statusFamilies) - tc.omitted; len(got) != want {
			t.Errorf("%s: %d status-derived families, want %d", tc.name, len(got), want)
		}
	}

	// Every decided job with an accept stamp contributes one decision
	// latency observation.
	les, cums := obs.HistogramBuckets(fams["waterwise_decision_latency_seconds"], nil)
	if len(les) == 0 {
		t.Fatal("decision latency histogram empty")
	}
	if got := cums[len(cums)-1]; got != uint64(decided) {
		t.Errorf("decision latency count %d, want %d decided", got, decided)
	}
	if _, cums := obs.HistogramBuckets(fams["waterwise_ingest_request_seconds"], nil); len(cums) == 0 || cums[len(cums)-1] != 1 {
		t.Errorf("ingest histogram should hold the one POST: %v", cums)
	}
	// The solve stage runs every round.
	sles, scums := obs.HistogramBuckets(fams["waterwise_round_stage_seconds"], map[string]string{"stage": "solve"})
	if len(sles) == 0 || scums[len(scums)-1] == 0 {
		t.Error("solve stage histogram empty")
	}
	st := srv.Status()
	if st.Obs == nil {
		t.Fatal("status obs summary missing")
	}
	if st.Obs.DecisionCount != uint64(decided) {
		t.Errorf("status decision count %d, want %d", st.Obs.DecisionCount, decided)
	}
	if st.Obs.SolveP50Ms <= 0 {
		t.Errorf("solve p50 = %g", st.Obs.SolveP50Ms)
	}

	// Round traces: slowest exemplars and the recent window.
	resp, err = http.Get(ts.URL + PathRounds + "?recent=5")
	if err != nil {
		t.Fatal(err)
	}
	var rounds RoundsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rounds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rounds.Slowest) == 0 {
		t.Fatal("no slowest-round exemplars")
	}
	for i := 1; i < len(rounds.Slowest); i++ {
		if rounds.Slowest[i].TotalMs > rounds.Slowest[i-1].TotalMs {
			t.Fatalf("slowest not sorted: %g then %g", rounds.Slowest[i-1].TotalMs, rounds.Slowest[i].TotalMs)
		}
	}
	if _, ok := rounds.Slowest[0].StagesMs["solve"]; !ok {
		t.Errorf("slowest round carries no solve stage: %v", rounds.Slowest[0].StagesMs)
	}
	if len(rounds.Recent) == 0 || len(rounds.Recent) > 5 {
		t.Fatalf("recent window: %d rounds", len(rounds.Recent))
	}

	// Job lifecycle trace: stride 1 samples every job.
	id := srv.Result().Outcomes[0].Job.ID
	resp, err = http.Get(ts.URL + PathJobs + "/" + strconv.Itoa(id) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job trace: status %d", resp.StatusCode)
	}
	var jt JobTraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !jt.Trace.Done || jt.Trace.Region == "" || jt.Trace.DecidedWall.IsZero() {
		t.Fatalf("trace incomplete: %+v", jt.Trace)
	}
	if jt.SampleEvery != 1 {
		t.Errorf("sample stride %d, want 1", jt.SampleEvery)
	}
	// Unknown id is a 404, not an error page.
	resp, err = http.Get(ts.URL + PathJobs + "/999999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// TestObsDisabled flips the kill switch: metrics must still lint (minus
// the histogram families) and the trace endpoints report 404.
func TestObsDisabled(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute,
		Obs: ObsConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.LintProm(metrics); err != nil {
		t.Fatalf("obs-off /metrics fails lint: %v", err)
	}
	fams, _ := obs.ParseProm(metrics)
	if fams["waterwise_decision_latency_seconds"] != nil {
		t.Error("latency family present with obs disabled")
	}
	resp, err = http.Get(ts.URL + PathRounds)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rounds endpoint: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + PathJobs + "/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("job trace endpoint: status %d, want 404", resp.StatusCode)
	}
	if srv.Status().Obs != nil {
		t.Error("status carries an obs summary with obs disabled")
	}
}

// TestObsEquivalence is the no-perturbation guarantee: the same trace
// replayed with observability on and off must emit identical placements.
// Sampling is a deterministic counter and recording happens after each
// decision is committed, so the decision stream cannot depend on it.
func TestObsEquivalence(t *testing.T) {
	run := func(disable bool) *cluster.Result {
		env := testEnv(t)
		jobs := genTrace(t, env, 3000, 6)
		srv, err := New(Config{
			Env: env, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute,
			Obs: ObsConfig{Disable: disable, JobSampleEvery: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()
		for _, j := range jobs {
			if _, err := srv.Submit(specFor(j)); err != nil {
				t.Fatal(err)
			}
		}
		drainServer(t, srv)
		return srv.Result()
	}
	on, off := run(false), run(true)
	if len(on.Outcomes) != len(off.Outcomes) {
		t.Fatalf("outcome counts differ: obs-on %d, obs-off %d", len(on.Outcomes), len(off.Outcomes))
	}
	for i := range on.Outcomes {
		a, b := on.Outcomes[i], off.Outcomes[i]
		if a.Job.ID != b.Job.ID || a.Region != b.Region || !a.Start.Equal(b.Start) || !a.Finish.Equal(b.Finish) {
			t.Fatalf("outcome %d differs: obs-on job %d->%s [%v,%v], obs-off job %d->%s [%v,%v]",
				i, a.Job.ID, a.Region, a.Start, a.Finish, b.Job.ID, b.Region, b.Start, b.Finish)
		}
	}
}
