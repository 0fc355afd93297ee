package fleet

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

	"waterwise/internal/obs"
	"waterwise/internal/server"
)

// TestFleetMetricsLintAndMergedHistograms replays a trace through a
// sharded fleet's gateway and checks the fleet observability surface:
// the whole /metrics exposition lints strictly, the per-shard latency
// families carry shard labels, and the fleet-level merged distributions
// are exact counter sums of the shards.
func TestFleetMetricsLintAndMergedHistograms(t *testing.T) {
	const shards = 2
	env := testEnv(t)
	jobs := genTrace(t, env, 3000, 6)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: shards,
		Tolerance: 0.5, Round: time.Minute,
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	ts := httptest.NewServer(fl.Handler())
	defer ts.Close()

	// Submit over the gateway's HTTP ingest so its histogram records.
	specs := make([]server.JobSpec, 0, len(jobs))
	for _, j := range jobs {
		specs = append(specs, specFor(j))
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+server.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	decided := len(fl.Decisions(0, 0))
	if decided != len(jobs) {
		t.Fatalf("decided %d of %d", decided, len(jobs))
	}

	resp, err = http.Get(ts.URL + server.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseProm(metrics)
	if err != nil {
		t.Fatalf("fleet /metrics does not parse: %v", err)
	}
	if err := obs.LintProm(metrics); err != nil {
		t.Fatalf("fleet /metrics fails lint: %v", err)
	}

	// One definition per family: everything a durable one-shard service
	// exports is on the two-shard one too, with the same TYPE and HELP,
	// and — bar the build identity, the one shared feed and the
	// service's own families — labeled by shard.
	single, err := server.New(server.Config{
		Env: env, Scheduler: newCore(t), Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	singleFams, err := obs.ParseProm(single.MetricsText())
	single.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range singleFams {
		got := fams[name]
		if got == nil {
			t.Errorf("gateway does not export %s, a single server does", name)
			continue
		}
		if got.Type != want.Type || got.Help != want.Help {
			t.Errorf("%s: gateway says %s %q, single server %s %q", name, got.Type, got.Help, want.Type, want.Help)
		}
		if name == "waterwise_build_info" || strings.HasPrefix(name, "waterwise_feed_") || strings.HasPrefix(name, "waterwise_fleet_") {
			continue
		}
		for _, smp := range got.Samples {
			if smp.Labels["shard"] == "" {
				t.Errorf("%s: gateway sample without a shard label: %v", name, smp.Labels)
			}
		}
	}

	// Per-shard decision latency, labeled; the shard counts must sum to
	// the merged fleet count, which must equal the decided total.
	shardFam := fams["waterwise_decision_latency_seconds"]
	if shardFam == nil {
		t.Fatal("per-shard decision latency family missing")
	}
	var shardSum uint64
	for s := 0; s < shards; s++ {
		_, cums := obs.HistogramBuckets(shardFam, map[string]string{"shard": strconv.Itoa(s)})
		if len(cums) == 0 {
			t.Fatalf("shard %d has no decision latency buckets", s)
		}
		shardSum += cums[len(cums)-1]
	}
	fleetFam := fams["waterwise_fleet_decision_latency_seconds"]
	if fleetFam == nil {
		t.Fatal("fleet merged decision latency family missing")
	}
	_, fleetCums := obs.HistogramBuckets(fleetFam, nil)
	if len(fleetCums) == 0 {
		t.Fatal("fleet decision latency histogram empty")
	}
	fleetCount := fleetCums[len(fleetCums)-1]
	if fleetCount != shardSum {
		t.Errorf("fleet count %d != sum of shard counts %d", fleetCount, shardSum)
	}
	if fleetCount != uint64(decided) {
		t.Errorf("fleet decision latency count %d, want %d decided", fleetCount, decided)
	}
	// The gateway owns ingest: one POST recorded at the fleet level.
	_, ingCums := obs.HistogramBuckets(fams["waterwise_fleet_ingest_request_seconds"], nil)
	if len(ingCums) == 0 || ingCums[len(ingCums)-1] != 1 {
		t.Errorf("gateway ingest histogram should hold the one POST: %v", ingCums)
	}
	if st := fl.Status(); st.Obs == nil || st.Obs.DecisionCount != uint64(decided) {
		t.Errorf("fleet status obs summary: %+v", st.Obs)
	}

	// Round traces through the gateway carry their shard of origin.
	resp, err = http.Get(ts.URL + server.PathRounds + "?recent=4")
	if err != nil {
		t.Fatal(err)
	}
	var rounds server.RoundsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rounds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rounds.Slowest) == 0 {
		t.Fatal("gateway served no slowest rounds")
	}
	for i, rt := range rounds.Slowest {
		if rt.Shard < 0 || rt.Shard >= shards {
			t.Fatalf("slowest[%d] has no valid shard: %+v", i, rt)
		}
		if i > 0 && rt.TotalMs > rounds.Slowest[i-1].TotalMs {
			t.Fatalf("slowest not sorted across shards at %d", i)
		}
	}
	if len(rounds.Recent) == 0 || len(rounds.Recent) > 4 {
		t.Fatalf("recent window: %d rounds", len(rounds.Recent))
	}

	// Job trace lookup scans the shards and reports the owner. The first
	// job is its shard's accepted ordinal 0, which the tracer samples.
	id := jobs[0].ID
	resp, err = http.Get(ts.URL + server.PathJobs + "/" + strconv.Itoa(id) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway job trace: status %d", resp.StatusCode)
	}
	var jt server.JobTraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !jt.Trace.Done || jt.Trace.Region == "" {
		t.Fatalf("gateway trace incomplete: shard=%v trace=%+v", jt.Shard, jt.Trace)
	}
}
