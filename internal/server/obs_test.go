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
// from a shard's status: everything but build info, the service's own
// families, the latency histograms and the feed block.
func statusDerived(fams map[string]*obs.PromFamily) map[string]*obs.PromFamily {
	out := make(map[string]*obs.PromFamily)
	for name, fam := range fams {
		if name == "waterwise_build_info" || fam.Type == "histogram" ||
			strings.HasPrefix(name, "waterwise_feed_") || strings.HasPrefix(name, "waterwise_fleet_") {
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
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
		DataDir: t.TempDir(),
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
		{"in-memory", newScheduler(t), "", []string{"waterwise_wal_", "waterwise_jobs_deduped_"}, 12},
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
	shard0 := map[string]string{"shard": "0"}
	les, cums := obs.HistogramBuckets(fams["waterwise_decision_latency_seconds"], shard0)
	if len(les) == 0 {
		t.Fatal("decision latency histogram empty")
	}
	if got := cums[len(cums)-1]; got != uint64(decided) {
		t.Errorf("decision latency count %d, want %d decided", got, decided)
	}
	if _, cums := obs.HistogramBuckets(fams["waterwise_fleet_ingest_request_seconds"], nil); len(cums) == 0 || cums[len(cums)-1] != 1 {
		t.Errorf("ingest histogram should hold the one POST: %v", cums)
	}
	// The solve stage runs every round.
	sles, scums := obs.HistogramBuckets(fams["waterwise_round_stage_seconds"], map[string]string{"shard": "0", "stage": "solve"})
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

	// Job lifecycle trace: the tracer samples accepted ordinals 0, 64, ...,
	// so the first job of the POST is traced.
	id := jobs[0].ID
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
	if jt.SampleEvery != 64 {
		t.Errorf("sample stride %d, want 64", jt.SampleEvery)
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
