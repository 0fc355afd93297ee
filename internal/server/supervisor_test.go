package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
)

// coreFactory builds every shard a WaterWise scheduler of its own.
func coreFactory(t testing.TB) func(int, []region.ID) (cluster.Scheduler, error) {
	return func(int, []region.ID) (cluster.Scheduler, error) { return newScheduler(t, false), nil }
}

// throttledFactory is coreFactory with every round delayed by delay: a
// decision-neutral stretch of an accelerated run, so a mid-run fault has
// a reliable window to land in on any machine.
func throttledFactory(t testing.TB, delay time.Duration) func(int, []region.ID) (cluster.Scheduler, error) {
	return func(int, []region.ID) (cluster.Scheduler, error) {
		return throttledSched{Scheduler: newScheduler(t, false), delay: delay}, nil
	}
}

// sameMergedStream asserts two merged decision streams are identical —
// global seq, shard identity, shard-local seq, job, placement, times,
// footprints — excluding DecidedWall (a wall-clock stamp that
// legitimately differs between processes).
func sameMergedStream(t *testing.T, got, want []MergedDecision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged stream length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Shard != w.Shard || g.ShardSeq != w.ShardSeq ||
			g.JobID != w.JobID || g.Region != w.Region ||
			!g.Round.Equal(w.Round) || !g.Start.Equal(w.Start) || !g.Finish.Equal(w.Finish) ||
			g.CarbonG != w.CarbonG || g.WaterL != w.WaterL {
			t.Fatalf("merged decision %d diverged:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
}

// TestSupervisorAutoFailover is the failover acceptance test: a shard of
// a supervised fleet crash-stops mid-run — not via KillShard, but the
// way a real process dies, with the fleet never told — and the
// supervisor alone must detect the death, mark the shard dead, and
// restart it from its write-ahead log. No external RestartShard call is
// ever made. The merged stream must come out decision-for-decision
// identical to an undisturbed reference fleet, with dense global seqs,
// zero lost decisions, and the restart counted in the status and
// metrics surfaces.
func TestSupervisorAutoFailover(t *testing.T) {
	const round = time.Minute
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 24)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Uninterrupted, unsupervised reference.
	ref, err := New(Config{Env: env, NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	for _, j := range jobs {
		if _, err := ref.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	ref.Start()
	if err := ref.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	want := ref.Decisions(0, 0)

	// Supervised durable fleet, throttled so the crash lands mid-run.
	fl, err := New(Config{
		Env: testEnv(t), NewScheduler: throttledFactory(t, 500*time.Microsecond), Shards: 2,
		Tolerance: 0.5, Round: round, DataDir: t.TempDir(), SnapshotEvery: 100,
		Supervisor: &SupervisorConfig{
			Interval: time.Millisecond, FailThreshold: 2,
			BackoffMin: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	ts := httptest.NewServer(fl.Handler())
	defer ts.Close()
	for _, j := range jobs {
		if _, err := fl.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	fl.Start()
	victim := fl.shardList()[0]
	for victim.Status().Decisions < 100 {
		runtime.Gosched()
	}
	// Crash the server directly — the fleet is not told (no KillShard);
	// only the supervisor's health probe can notice.
	victim.Crash()
	st0 := victim.Status()
	if st0.Decisions >= st0.Accepted {
		t.Fatalf("crash landed after shard 0 finished (%d/%d decisions); nothing to fail over",
			st0.Decisions, st0.Accepted)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fl.Restarts() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never restarted the crashed shard")
		}
		time.Sleep(time.Millisecond)
	}
	if rst := fl.shardList()[0].Status(); rst.WAL == nil || (!rst.WAL.RecoveredSnapshot && rst.WAL.RecoveredRecords == 0) {
		t.Fatalf("supervised restart recovered nothing: %+v", rst.WAL)
	}
	if err := fl.Drain(ctx); err != nil {
		t.Fatalf("drain after failover: %v", err)
	}
	got := fl.Decisions(0, 0)
	sameMergedStream(t, got, want)
	for i, d := range got {
		if d.Seq != uint64(i)+1 {
			t.Fatalf("global seq gap: decision %d has seq %d", i, d.Seq)
		}
	}

	st := fl.Status()
	if st.Lost != 0 {
		t.Fatalf("merge lost %d decisions across the failover", st.Lost)
	}
	if st.Supervisor == nil || st.Supervisor.Restarts < 1 {
		t.Fatalf("status supervisor block missing the restart: %+v", st.Supervisor)
	}
	if s0 := st.Supervisor.Shards[0]; s0.State != "up" || s0.Restarts < 1 {
		t.Fatalf("shard 0 supervision state: %+v", s0)
	}

	// The restart shows in the metrics exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`(?m)^waterwise_fleet_restarts_total (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatal("metrics exposition missing waterwise_fleet_restarts_total")
	}
	if n, _ := strconv.Atoi(string(m[1])); n < 1 {
		t.Fatalf("waterwise_fleet_restarts_total = %d, want >= 1", n)
	}
	if !bytes.Contains(body, []byte(`waterwise_fleet_shard_up{shard="0"} 1`)) {
		t.Fatal("metrics exposition missing the recovered shard's up gauge")
	}
}
