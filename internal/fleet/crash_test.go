package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/server"
)

// sameMergedStream asserts two merged decision streams are identical —
// global seq, shard identity, shard-local seq, job, placement, times,
// footprints — excluding DecidedWall (a wall-clock stamp that
// legitimately differs between processes).
func sameMergedStream(t *testing.T, got, want []Decision) {
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

// throttledScheduler delays each round by a fixed wall-clock amount and
// delegates the decisions unchanged — it stretches an accelerated run in
// real time without touching its output.
type throttledScheduler struct {
	cluster.Scheduler
	delay time.Duration
}

func (s throttledScheduler) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	time.Sleep(s.delay)
	return s.Scheduler.Schedule(ctx)
}

func throttledFactory(t testing.TB, delay time.Duration) func(int, []region.ID) (cluster.Scheduler, error) {
	inner := coreFactory(t)
	return func(shard int, regions []region.ID) (cluster.Scheduler, error) {
		sched, err := inner(shard, regions)
		if err != nil {
			return nil, err
		}
		return throttledScheduler{Scheduler: sched, delay: delay}, nil
	}
}

// TestFleetCrashRestartEquivalence extends the sharding acceptance test
// with a mid-run crash: SIGKILL one shard of a running fleet (KillShard
// drops the shard's unsynced WAL buffer, exactly what the kernel does to
// a killed process), restart it from its data directory, and the k-way
// merged decision stream must be byte-for-byte identical — global seqs
// dense, no gaps, no renumbering — to the same fleet run with no crash.
func TestFleetCrashRestartEquivalence(t *testing.T) {
	const round = time.Minute
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 24)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Uninterrupted reference fleet (no durability).
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
	if len(want) != len(jobs) {
		t.Fatalf("reference fleet merged %d decisions, want %d", len(want), len(jobs))
	}

	// Durable fleet; shard 0 is killed mid-run and restarted. Its
	// scheduler is throttled — a decision-neutral per-round delay — so
	// the accelerated run lasts long enough for the kill to reliably
	// land mid-run on any machine.
	fl, err := New(Config{
		Env: testEnv(t), NewScheduler: throttledFactory(t, 500*time.Microsecond), Shards: 2,
		Tolerance: 0.5, Round: round, DataDir: t.TempDir(), SnapshotEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	for _, j := range jobs {
		if _, err := fl.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	fl.Start()
	// Yield-only spin: without per-round fsyncs the whole shard run is
	// tens of milliseconds, and a sleeping poll can miss the kill window.
	for fl.ShardStatus(0).Decisions < 100 {
		runtime.Gosched()
	}
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	st0 := fl.ShardStatus(0)
	if st0.Decisions >= st0.Accepted {
		t.Fatalf("kill landed after shard 0 finished (%d/%d decisions); nothing recovered",
			st0.Decisions, st0.Accepted)
	}
	if err := fl.RestartShard(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	rst := fl.ShardStatus(0)
	if rst.WAL == nil || (!rst.WAL.RecoveredSnapshot && rst.WAL.RecoveredRecords == 0) {
		t.Fatalf("restarted shard recovered nothing: %+v", rst.WAL)
	}
	if err := fl.Drain(ctx); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	got := fl.Decisions(0, 0)
	sameMergedStream(t, got, want)
	if st := fl.Status(); st.Lost != 0 {
		t.Fatalf("merge lost %d decisions across the crash", st.Lost)
	}
}

// TestFleetDeadShardBuffering: while a shard is down the gateway keeps
// accepting its submissions — parking them in a bounded buffer — and
// re-routes them when the shard restarts; the buffer bound surfaces as
// the usual backpressure error.
func TestFleetDeadShardBuffering(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2,
		Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(), QueueCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	deadHome := fl.Partitions()[0][0]
	liveHome := fl.Partitions()[1][0]
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	if err := fl.KillShard(0); err != nil {
		t.Fatalf("KillShard not idempotent: %v", err)
	}
	if err := fl.RestartShard(1); err == nil {
		t.Fatal("RestartShard of a live shard must refuse")
	}

	ids := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := fl.Submit(server.JobSpec{Benchmark: "canneal", Home: deadHome, Submit: testStart.Add(time.Hour)})
		if err != nil {
			t.Fatalf("submit %d to dead shard: %v", i, err)
		}
		ids = append(ids, id)
	}
	// Buffer is bounded by the queue cap.
	if _, err := fl.Submit(server.JobSpec{Benchmark: "canneal", Home: deadHome, Submit: testStart.Add(time.Hour)}); !errors.Is(err, server.ErrQueueFull) {
		t.Fatalf("buffer overflow: got %v, want ErrQueueFull", err)
	}
	// The live shard is unaffected.
	if _, err := fl.Submit(server.JobSpec{Benchmark: "canneal", Home: liveHome, Submit: testStart.Add(time.Hour)}); err != nil {
		t.Fatalf("submit to live shard during outage: %v", err)
	}

	if err := fl.RestartShard(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	decided := make(map[int]bool)
	for _, d := range fl.Decisions(0, 0) {
		decided[d.JobID] = true
	}
	for _, id := range ids {
		if !decided[id] {
			t.Fatalf("buffered job %d never decided after restart", id)
		}
	}

	if err := fl.KillShard(7); err == nil {
		t.Fatal("KillShard out of range must refuse")
	}
	if err := fl.RestartShard(7); err == nil {
		t.Fatal("RestartShard out of range must refuse")
	}
}
