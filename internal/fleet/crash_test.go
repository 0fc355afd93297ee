package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
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
// a killed process), let the durable service restart it from its data
// directory, and the k-way merged decision stream must be byte-for-byte
// identical — global seqs dense, no gaps, no renumbering — to the same
// fleet run with no crash.
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

	// Durable fleet; shard 0 is killed mid-run and restarts. Its
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
	// Drain waits out the restart.
	if err := fl.Drain(ctx); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	rst := fl.ShardStatus(0)
	if rst.WAL == nil || (!rst.WAL.RecoveredSnapshot && rst.WAL.RecoveredRecords == 0) {
		t.Fatalf("restarted shard recovered nothing: %+v", rst.WAL)
	}
	got := fl.Decisions(0, 0)
	sameMergedStream(t, got, want)
	if st := fl.Status(); st.Lost != 0 {
		t.Fatalf("merge lost %d decisions across the crash", st.Lost)
	}
}
