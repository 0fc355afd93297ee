package fleet

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
	"waterwise/internal/server"
	"waterwise/internal/trace"
)

var testStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func testEnv(t *testing.T) *region.Environment {
	t.Helper()
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*3, 21)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// newCore builds one WaterWise scheduler — the per-shard factory and the
// offline comparator both use it, so equivalence compares identical
// scheduler configurations.
func newCore(t testing.TB) cluster.Scheduler {
	t.Helper()
	ww, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ww
}

func coreFactory(t testing.TB) func(int, []region.ID) (cluster.Scheduler, error) {
	return func(int, []region.ID) (cluster.Scheduler, error) { return newCore(t), nil }
}

// genTrace produces a millisecond-quantized trace (the CSV wire format's
// precision) so JSON float-seconds round exactly, as in the server tests.
func genTrace(t *testing.T, env *region.Environment, jobsPerDay float64, hours int) []*trace.Job {
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

// decisionsPage decodes the gateway's GET /v1/decisions reply with typed
// merged entries (the wire shape is server.DecisionsResponse).
type decisionsPage struct {
	Decisions []Decision `json:"decisions"`
	Next      uint64     `json:"next"`
}

// ownerOf maps each region to the shard whose partition holds it.
func ownerOf(parts [][]region.ID) func(region.ID) (int, bool) {
	owner := make(map[region.ID]int)
	for s, p := range parts {
		for _, id := range p {
			owner[id] = s
		}
	}
	return func(id region.ID) (int, bool) {
		s, ok := owner[id]
		return s, ok
	}
}

func specFor(j *trace.Job) server.JobSpec {
	id := j.ID
	return server.JobSpec{
		ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
		DurationSec:    j.Duration.Seconds(),
		EnergyKWh:      float64(j.Energy),
		EstDurationSec: j.EstDuration.Seconds(),
		EstEnergyKWh:   float64(j.EstEnergy),
	}
}

// TestFleetReplayEquivalence is the sharding acceptance test: replaying a
// fixed trace through an N-shard fleet in accelerated mode must be
// decision-for-decision identical, per region partition, to the offline
// single-scheduler replay (cluster.Run) of that partition's sub-trace
// over a partition view of the same environment — placements, start and
// finish instants, footprints, rounds, everything. With one shard the
// partition is the whole environment, so the fleet reproduces the
// unsharded single-server run exactly. The merged decision stream must be
// gap-free and deterministically (round, shard, shard-seq)-ordered.
func TestFleetReplayEquivalence(t *testing.T) {
	const round = time.Minute
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env := testEnv(t)
			jobs := genTrace(t, env, 4000, 24)

			fl, err := New(Config{
				Env: env, NewScheduler: coreFactory(t), Shards: shards,
				Tolerance: 0.5, Round: round,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Stop()
			for _, j := range jobs {
				if _, err := fl.Submit(specFor(j)); err != nil {
					t.Fatalf("submit job %d: %v", j.ID, err)
				}
			}
			fl.Start()
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			if err := fl.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}

			// Merged stream: one decision per job, dense global seqs,
			// (round, shard, shard-seq)-ordered, every decision on the shard
			// owning the job's home and placed inside its partition.
			owner := ownerOf(fl.Partitions())
			byID := make(map[int]*trace.Job, len(jobs))
			for _, j := range jobs {
				byID[j.ID] = j
			}
			ds := fl.Decisions(0, 0)
			if len(ds) != len(jobs) {
				t.Fatalf("merged %d decisions, want %d", len(ds), len(jobs))
			}
			shardSeq := make([]uint64, shards)
			for i, d := range ds {
				if d.Seq != uint64(i+1) {
					t.Fatalf("decision %d has global seq %d: stream not gap-free", i, d.Seq)
				}
				if i > 0 {
					prev := ds[i-1]
					if d.Round.Before(prev.Round) ||
						(d.Round.Equal(prev.Round) && d.Shard < prev.Shard) {
						t.Fatalf("merge order violated at seq %d: (%v, shard %d) after (%v, shard %d)",
							d.Seq, d.Round, d.Shard, prev.Round, prev.Shard)
					}
				}
				if d.ShardSeq != shardSeq[d.Shard]+1 {
					t.Fatalf("shard %d local seq %d after %d", d.Shard, d.ShardSeq, shardSeq[d.Shard])
				}
				shardSeq[d.Shard] = d.ShardSeq
				job := byID[d.JobID]
				if job == nil {
					t.Fatalf("decision for unknown job %d", d.JobID)
				}
				if own, _ := owner(job.Home); own != d.Shard {
					t.Fatalf("job %d homed in %s decided by shard %d, owner is %d",
						d.JobID, job.Home, d.Shard, own)
				}
				if own, _ := owner(d.Region); own != d.Shard {
					t.Fatalf("job %d placed in %s, outside shard %d's partition", d.JobID, d.Region, d.Shard)
				}
			}

			// Per-partition equivalence against the offline replay.
			got, err := fl.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Unscheduled) != 0 {
				t.Fatalf("fleet left %d jobs unscheduled", len(got.Unscheduled))
			}
			for s, part := range fl.Partitions() {
				partEnv, err := env.Partition(part...)
				if err != nil {
					t.Fatal(err)
				}
				var sub []*trace.Job
				for _, j := range jobs {
					if own, _ := owner(j.Home); own == s {
						sub = append(sub, j)
					}
				}
				want, err := cluster.Run(cluster.Config{
					Env: partEnv, Tolerance: 0.5, Tick: round,
				}, newCore(t), sub)
				if err != nil {
					t.Fatalf("offline replay of shard %d: %v", s, err)
				}
				var outs []cluster.JobOutcome
				for _, o := range got.Outcomes {
					if own, _ := owner(o.Job.Home); own == s {
						outs = append(outs, o)
					}
				}
				if len(outs) != len(want.Outcomes) {
					t.Fatalf("shard %d: fleet %d outcomes, offline %d", s, len(outs), len(want.Outcomes))
				}
				for i := range want.Outcomes {
					w, g := want.Outcomes[i], outs[i]
					if w.Job.ID != g.Job.ID || w.Region != g.Region {
						t.Fatalf("shard %d outcome %d: fleet job %d->%s, offline job %d->%s",
							s, i, g.Job.ID, g.Region, w.Job.ID, w.Region)
					}
					if !w.Start.Equal(g.Start) || !w.Finish.Equal(g.Finish) {
						t.Fatalf("shard %d job %d: fleet [%v,%v], offline [%v,%v]",
							s, w.Job.ID, g.Start, g.Finish, w.Start, w.Finish)
					}
					if w.Compute != g.Compute || w.Comm != g.Comm {
						t.Fatalf("shard %d job %d: footprints differ", s, w.Job.ID)
					}
					if w.Violated != g.Violated {
						t.Fatalf("shard %d job %d: violation flag differs", s, w.Job.ID)
					}
				}
			}
			st := fl.Status()
			if st.Lost != 0 {
				t.Fatalf("merge lost %d decisions", st.Lost)
			}
			if st.Merged != uint64(len(jobs)) {
				t.Fatalf("status reports %d merged, want %d", st.Merged, len(jobs))
			}
		})
	}
}

// TestFleetDrainUnderLoadGapFree is the graceful-shutdown satellite:
// Drain racing in-flight ingest on every shard must flush every queued
// job, and the merged decision log — polled live while the shards run —
// must come out gap-free: dense global seqs, dense per-shard seqs, no
// duplicates, nothing lost.
func TestFleetDrainUnderLoadGapFree(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 4,
		Tolerance: 0.5, Round: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	fl.Start()

	homes := env.IDs()
	const submitters = 4
	const perSubmitter = 250
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				spec := server.JobSpec{
					Benchmark: "canneal",
					Home:      homes[(g+i)%len(homes)],
					Submit:    testStart.Add(time.Duration(g*perSubmitter+i) * 30 * time.Second),
				}
				if _, err := fl.Submit(spec); err != nil {
					t.Errorf("submitter %d job %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}

	// Live poller: global seqs observed across incremental merges must
	// increase by exactly one — the stream never skips or repeats.
	stopPoll := make(chan struct{})
	pollDone := make(chan error, 1)
	go func() {
		var cursor uint64
		for {
			for _, d := range fl.Decisions(cursor, 0) {
				if d.Seq != cursor+1 {
					pollDone <- fmt.Errorf("live poll saw seq %d after %d", d.Seq, cursor)
					return
				}
				cursor = d.Seq
			}
			select {
			case <-stopPoll:
				pollDone <- nil
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stopPoll)
	if err := <-pollDone; err != nil {
		t.Fatal(err)
	}

	const total = submitters * perSubmitter
	st := fl.Status()
	if st.Accepted != total || st.Decisions != total || st.Unscheduled != 0 {
		t.Fatalf("accepted=%d decided=%d unscheduled=%d, want %d/%d/0",
			st.Accepted, st.Decisions, st.Unscheduled, total, total)
	}
	if st.Lost != 0 {
		t.Fatalf("merge lost %d decisions", st.Lost)
	}
	ds := fl.Decisions(0, 0)
	if len(ds) != total {
		t.Fatalf("merged log has %d decisions, want %d", len(ds), total)
	}
	seenJob := make(map[int]bool, total)
	shardSeq := make([]uint64, len(fl.Partitions()))
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("global seq %d at index %d: gap or duplicate", d.Seq, i)
		}
		if d.ShardSeq != shardSeq[d.Shard]+1 {
			t.Fatalf("shard %d seq %d after %d: gap or duplicate", d.Shard, d.ShardSeq, shardSeq[d.Shard])
		}
		shardSeq[d.Shard] = d.ShardSeq
		if seenJob[d.JobID] {
			t.Fatalf("job %d decided twice", d.JobID)
		}
		seenJob[d.JobID] = true
	}
}

// TestFleetGatewayHTTP exercises the gateway surface: routed batch
// submission, typed rejection statuses, merged decision paging, and the
// aggregated status and metrics endpoints.
func TestFleetGatewayHTTP(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2,
		Tolerance: 0.5, Round: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fl.Handler())
	defer ts.Close()
	defer fl.Stop()

	post := func(v interface{}) (server.SubmitResponse, int) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+server.PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr server.SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return sr, resp.StatusCode
	}

	// A batch spanning every region routes each job to its owning shard.
	specs := make([]server.JobSpec, 0, len(env.IDs()))
	for i, id := range env.IDs() {
		specs = append(specs, server.JobSpec{
			Benchmark: "canneal", Home: id, Submit: testStart.Add(time.Duration(i) * time.Second),
		})
	}
	sr, code := post(specs)
	if code != http.StatusAccepted || len(sr.Accepted) != len(specs) {
		t.Fatalf("batch submit: status %d, accepted %v, error %q", code, sr.Accepted, sr.Error)
	}
	// Fleet-minted ids are unique even though the jobs landed on
	// different shards.
	seen := map[int]bool{}
	for _, id := range sr.Accepted {
		if seen[id] {
			t.Fatalf("fleet minted duplicate id %d", id)
		}
		seen[id] = true
	}

	// Typed rejections map to distinct statuses through the gateway.
	if _, code := post(server.JobSpec{Benchmark: "canneal", Home: "atlantis", Submit: testStart}); code != http.StatusNotFound {
		t.Errorf("unknown region: status %d, want 404", code)
	}
	if _, code := post(server.JobSpec{Benchmark: "quake3", Home: region.Zurich, Submit: testStart}); code != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", code)
	}
	dup := 900001
	if _, code := post(server.JobSpec{ID: &dup, Benchmark: "canneal", Home: region.Zurich, Submit: testStart}); code != http.StatusAccepted {
		t.Fatalf("first submit of id %d rejected (%d)", dup, code)
	}
	// An identical retry dedupes to the original id; a different spec
	// under the same id is the 409.
	if resp, code := post(server.JobSpec{ID: &dup, Benchmark: "canneal", Home: region.Zurich, Submit: testStart}); code != http.StatusAccepted || len(resp.Accepted) != 1 || resp.Accepted[0] != dup {
		t.Errorf("idempotent retry: status %d accepted %v, want 202 [%d]", code, resp.Accepted, dup)
	}
	if _, code := post(server.JobSpec{ID: &dup, Benchmark: "swaptions", Home: region.Zurich, Submit: testStart}); code != http.StatusConflict {
		t.Errorf("conflicting spec under same id: status %d, want 409", code)
	}
	if _, code := post(server.JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(-time.Hour)}); code != http.StatusBadRequest {
		t.Errorf("outside horizon: status %d, want 400", code)
	}

	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Merged decision paging through the gateway.
	var page decisionsPage
	resp, err := http.Get(ts.URL + server.PathDecisions + "?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Decisions) != 2 {
		t.Fatalf("limit=2 returned %d decisions", len(page.Decisions))
	}
	total := len(page.Decisions)
	for page.Next > 0 && total < 100 {
		resp, err := http.Get(fmt.Sprintf("%s%s?since=%d", ts.URL, server.PathDecisions, page.Next))
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
	if total != len(specs)+1 { // the batch plus the accepted id-900001 singleton
		t.Fatalf("paged through %d merged decisions, want %d", total, len(specs)+1)
	}

	// Aggregated status: both shards visible, region union complete.
	var st Status
	resp, err = http.Get(ts.URL + server.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != 2 || len(st.ShardStatus) != 2 || len(st.Free) != len(env.IDs()) {
		t.Fatalf("status: shards=%d shard_status=%d free=%d", st.Shards, len(st.ShardStatus), len(st.Free))
	}
	if st.Scheduler != "waterwise" || st.Merged != uint64(total) {
		t.Fatalf("status: %+v", st)
	}

	// Metrics carry per-shard labels plus fleet-level merge counters.
	resp, err = http.Get(ts.URL + server.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, key := range []string{
		"waterwise_fleet_shards 2",
		fmt.Sprintf("waterwise_fleet_merged_decisions_total %d", total),
		"waterwise_fleet_lost_decisions_total 0",
		`waterwise_jobs_accepted_total{shard="0"}`,
		`waterwise_jobs_accepted_total{shard="1"}`,
		`waterwise_decisions_total{shard="1"}`,
		`,shard="0"}`,
		// One feed block for the whole fleet (shared provider), not one
		// per shard.
		`waterwise_feed_staleness_seconds{provider="synthetic"} 0`,
	} {
		if !strings.Contains(raw.String(), key) {
			t.Errorf("metrics missing %q:\n%s", key, raw.String())
		}
	}

	// Submissions after Stop are refused with 503 through the gateway.
	fl.Stop()
	if _, code := post(server.JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart}); code != http.StatusServiceUnavailable {
		t.Errorf("submit after stop: status %d, want 503", code)
	}
}

// TestFleetSubmitTypedErrors pins the typed rejection causes at the Go
// API level: the gateway's own unknown-region rejection and the shard's
// backpressure both surface as errors.Is-matchable values.
func TestFleetSubmitTypedErrors(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2,
		Tolerance: 0.5, Round: time.Minute, QueueCap: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if _, err := fl.Submit(server.JobSpec{Benchmark: "canneal", Home: "atlantis", Submit: testStart}); !errors.Is(err, server.ErrUnknownRegion) {
		t.Errorf("unknown region: %v", err)
	}
	spec := server.JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart}
	if _, err := fl.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Submit(spec); !errors.Is(err, server.ErrQueueFull) {
		t.Errorf("over-cap submit: %v", err)
	}
	// The sibling shard's queue is independent: backpressure on one shard
	// does not reject jobs homed on another.
	other := env.IDs()[1]
	owner := ownerOf(fl.Partitions())
	if own0, _ := owner(region.Zurich); own0 == func() int { s, _ := owner(other); return s }() {
		t.Fatalf("test setup: %s and %s share a shard", region.Zurich, other)
	}
	if _, err := fl.Submit(server.JobSpec{Benchmark: "canneal", Home: other, Submit: testStart}); err != nil {
		t.Errorf("sibling shard rejected: %v", err)
	}
}

// TestPartitionAssignment covers the shard map: pinning, balanced dealing
// of unpinned regions, and the misconfiguration rejections.
func TestPartitionAssignment(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2,
		ShardMap:  map[region.ID]int{region.Mumbai: 0, region.Zurich: 1},
		Tolerance: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	owner := ownerOf(fl.Partitions())
	if own, _ := owner(region.Mumbai); own != 0 {
		t.Errorf("mumbai pinned to 0, owned by %d", own)
	}
	if own, _ := owner(region.Zurich); own != 1 {
		t.Errorf("zurich pinned to 1, owned by %d", own)
	}
	parts := fl.Partitions()
	if len(parts[0])+len(parts[1]) != len(env.IDs()) {
		t.Fatalf("partitions %v do not cover the environment", parts)
	}
	// Balanced dealing: 5 regions over 2 shards splits 3/2.
	if len(parts[0]) < 2 || len(parts[1]) < 2 {
		t.Errorf("unbalanced partitions %v", parts)
	}

	bad := []Config{
		{Env: env, NewScheduler: coreFactory(t), Shards: 6},
		{Env: env, NewScheduler: coreFactory(t), Shards: 2, ShardMap: map[region.ID]int{"atlantis": 0}},
		{Env: env, NewScheduler: coreFactory(t), Shards: 2, ShardMap: map[region.ID]int{region.Zurich: 5}},
		{Env: env, NewScheduler: coreFactory(t), Shards: 5, ShardMap: map[region.ID]int{
			region.Zurich: 0, region.Madrid: 0, region.Oregon: 0, region.Milan: 0, region.Mumbai: 0,
		}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
