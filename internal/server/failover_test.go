package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/wire"
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
// a durable fleet crash-stops mid-run — not via KillShard, but by the
// shard itself — and the service alone must mark the shard dead and
// restart it from its write-ahead log. Nothing outside the service
// restarts anything. The merged stream must come out
// decision-for-decision identical to an undisturbed reference fleet, with
// dense global seqs, zero lost decisions, and the restart counted in the
// status and metrics surfaces.
func TestSupervisorAutoFailover(t *testing.T) {
	const round = time.Minute
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 24)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Uninterrupted, in-memory reference.
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

	// Durable fleet, throttled so the crash lands mid-run.
	fl, err := New(Config{
		Env: testEnv(t), NewScheduler: throttledFactory(t, 500*time.Microsecond), Shards: 2,
		Tolerance: 0.5, Round: round, DataDir: t.TempDir(), SnapshotEvery: 100,
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
	// Crash the shard directly — the fleet is not told (no KillShard);
	// only the shard's own death hook can notice.
	victim.Crash()
	st0 := victim.Status()
	if st0.Decisions >= st0.Accepted {
		t.Fatalf("crash landed after shard 0 finished (%d/%d decisions); nothing to fail over",
			st0.Decisions, st0.Accepted)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fl.Status().Restarts < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the service never restarted the crashed shard")
		}
		time.Sleep(time.Millisecond)
	}
	if rst := fl.shardList()[0].Status(); rst.WAL == nil || (!rst.WAL.RecoveredSnapshot && rst.WAL.RecoveredRecords == 0) {
		t.Fatalf("restart recovered nothing: %+v", rst.WAL)
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
	if st.Restarts < 1 {
		t.Fatalf("status missing the restart: %d restarts", st.Restarts)
	}
	if s0 := st.ShardStatus[0]; s0.Down || s0.Restarts < 1 {
		t.Fatalf("shard 0 failover state: down %v, %d restarts", s0.Down, s0.Restarts)
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

// TestDeadShardRefusesSubmits: while a durable shard is down it refuses
// its submissions with ErrShardDown — it has no log to write them ahead
// to — and leaves the live shard alone. The service rebuilds it on its
// own, and the refused job, retried, is accepted and decided. The rebuild
// is gated so the down window stays open while the test needs it.
func TestDeadShardRefusesSubmits(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	var builds [2]atomic.Int32
	fl, err := New(Config{
		Env: testEnv(t), Shards: 2, Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(),
		NewScheduler: func(shard int, _ []region.ID) (cluster.Scheduler, error) {
			if builds[shard].Add(1) > 1 {
				<-gate // a restart waits for the test
			}
			return newScheduler(t, false), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	defer release() // before Stop, which waits for the restart
	deadHome, liveHome := fl.Partitions()[0][0], fl.Partitions()[1][0]
	spec := func(id int, home region.ID) JobSpec {
		return JobSpec{ID: &id, Benchmark: "canneal", Home: home, Submit: testStart.Add(time.Hour)}
	}

	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	if err := fl.KillShard(0); err != nil {
		t.Fatalf("killing a dead shard: %v", err)
	}
	if err := fl.KillShard(7); err == nil {
		t.Fatal("KillShard out of range must refuse")
	}
	if _, err := fl.Submit(spec(1, deadHome)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("submit to the dead shard: got %v, want ErrShardDown", err)
	}
	if _, err := fl.Submit(spec(2, liveHome)); err != nil {
		t.Fatalf("submit to the live shard during the outage: %v", err)
	}
	if st := fl.Status(); !st.ShardStatus[0].Down || st.ShardStatus[1].Down || st.Restarts != 0 {
		t.Fatalf("outage status: shard 0 down %v, shard 1 down %v, %d restarts",
			st.ShardStatus[0].Down, st.ShardStatus[1].Down, st.Restarts)
	}

	release()
	deadline := time.Now().Add(10 * time.Second)
	for fl.ShardStatus(0).Down {
		if time.Now().After(deadline) {
			t.Fatal("the service never restarted the killed shard")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := fl.Submit(spec(1, deadHome)); err != nil {
		t.Fatalf("retry after the restart: %v", err)
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	decided := make(map[int]bool)
	for i, d := range fl.Decisions(0, 0) {
		if d.Seq != uint64(i)+1 {
			t.Fatalf("global seq gap: decision %d has seq %d", i, d.Seq)
		}
		decided[d.JobID] = true
	}
	if !decided[1] || !decided[2] {
		t.Fatalf("decided jobs %v, want 1 and 2", decided)
	}
	if st := fl.Status(); st.Restarts != 1 || st.Err != "" {
		t.Fatalf("after the restart: %d restarts, err %q", st.Restarts, st.Err)
	}
}

// TestInMemoryDeadShardStaysDown: an in-memory service has nothing to
// rebuild a killed shard from, so the shard stays down. HTTP answers its
// submissions 503 and the stream protocol SubmitStopped, Drain reports
// ErrShardDown, and /metrics shows it down. The live shard's decisions
// still flow: the merge counts the dead shard as idle rather than wait on
// its frozen round clock.
func TestInMemoryDeadShardStaysDown(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 6)
	fl, sl := streamTestServer(t, Config{Env: env, NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: time.Minute})
	ts := httptest.NewServer(fl.Handler())
	defer ts.Close()
	live := 0
	for _, j := range jobs {
		if _, err := fl.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
		if fl.owner[j.Home] == 1 {
			live++
		}
	}
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}

	dead := JobSpec{Benchmark: "canneal", Home: fl.Partitions()[0][0], Submit: testStart.Add(time.Hour)}
	body, err := json.Marshal(dead)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(sr.Error, "shard 0") {
		t.Fatalf("HTTP submit to the dead shard: status %d, %+v; want 503 naming shard 0", resp.StatusCode, sr)
	}
	c := dialStream(t, sl.Addr().String(), 0, false)
	defer c.close()
	if res := c.submit([]JobSpec{dead}); res[0].Code != wire.SubmitStopped {
		t.Fatalf("stream submit to the dead shard: code %d, want SubmitStopped", res[0].Code)
	}

	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); !errors.Is(err, ErrShardDown) {
		t.Fatalf("drain with a shard down for good: got %v, want ErrShardDown", err)
	}
	got := fl.Decisions(0, 0)
	if len(got) != live {
		t.Fatalf("merged %d decisions, want the live shard's %d: the merge waited on the dead shard", len(got), live)
	}
	for i, d := range got {
		if d.Seq != uint64(i)+1 || d.Shard != 1 {
			t.Fatalf("decision %d: seq %d from shard %d", i, d.Seq, d.Shard)
		}
	}
	if st := fl.Status(); !st.ShardStatus[0].Down || st.Restarts != 0 {
		t.Fatalf("status: shard 0 down %v, %d restarts", st.ShardStatus[0].Down, st.Restarts)
	}
	mresp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`waterwise_fleet_shard_up{shard="0"} 0`, `waterwise_fleet_shard_up{shard="1"} 1`} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}
}

// failingSched fails its failAt-th scheduling round, the way a solver
// fault would, and schedules like its wrapped scheduler otherwise.
type failingSched struct {
	cluster.Scheduler
	rounds, failAt int
}

func (s *failingSched) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	if s.rounds++; s.rounds == s.failAt {
		return nil, errors.New("injected solver fault")
	}
	return s.Scheduler.Schedule(ctx)
}

// TestRoundLoopFailureRestarts: a durable shard whose round loop fails —
// its first scheduler errors mid-run — dies like a killed one and is
// rebuilt from its log with a fresh scheduler, and the merged stream comes
// out identical to an undisturbed run.
func TestRoundLoopFailureRestarts(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 24)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	ref, err := New(Config{Env: env, NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: time.Minute})
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

	var builds atomic.Int32
	fl, err := New(Config{
		Env: testEnv(t), Shards: 2, Tolerance: 0.5, Round: time.Minute,
		DataDir: t.TempDir(), SnapshotEvery: 16,
		NewScheduler: func(shard int, _ []region.ID) (cluster.Scheduler, error) {
			if shard == 0 && builds.Add(1) == 1 {
				return &failingSched{Scheduler: newScheduler(t, false), failAt: 40}, nil
			}
			return newScheduler(t, false), nil
		},
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
	if err := fl.Drain(ctx); err != nil {
		t.Fatalf("drain through the failure: %v", err)
	}
	sameMergedStream(t, fl.Decisions(0, 0), want)
	st := fl.Status()
	if st.Restarts != 1 || st.Lost != 0 || st.Err != "" {
		t.Fatalf("after the failure: %d restarts, %d lost, err %q", st.Restarts, st.Lost, st.Err)
	}
	if rec := st.ShardStatus[0].WAL; rec == nil || (!rec.RecoveredSnapshot && rec.RecoveredRecords == 0) {
		t.Fatalf("restart recovered nothing: %+v", rec)
	}
	// The restart does not hide why the shard died.
	if s0, s1 := st.ShardStatus[0], st.ShardStatus[1]; !strings.Contains(s0.LastErr, "injected solver fault") || s1.LastErr != "" {
		t.Fatalf("last failures: shard 0 %q, shard 1 %q; want the solver fault on shard 0 only", s0.LastErr, s1.LastErr)
	}
}

// TestRoundLoopFailureKeepsAcknowledgedJobs: a failed round is the
// round's fault, not the disk's, so the jobs a shard acknowledged since
// its last group commit outlive it. Every job here is submitted after
// Start, with a SyncInterval nothing reaches and no snapshot or read to
// commit it, so none is on disk when the scheduler fails; every one the
// service acknowledged must still be decided after the restart.
func TestRoundLoopFailureKeepsAcknowledgedJobs(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 4)
	var builds atomic.Int32
	fl, err := New(Config{
		Env: env, Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(),
		SyncInterval: time.Hour, SnapshotEvery: 1 << 30,
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) {
			if builds.Add(1) == 1 {
				return &failingSched{Scheduler: newScheduler(t, false), failAt: 3}, nil
			}
			return newScheduler(t, false), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	fl.Start()
	acked := make(map[int]bool)
	for _, j := range jobs {
		id, err := fl.Submit(specFor(j))
		switch {
		case err == nil:
			acked[id] = true
		case errors.Is(err, ErrShardDown):
			// Refused while the shard was down: never acknowledged.
		default:
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fl.ShardStatus(0).Restarts < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the injected solver fault never restarted the shard")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	decided := make(map[int]bool)
	for _, d := range fl.Decisions(0, 0) {
		decided[d.JobID] = true
	}
	missing := 0
	for id := range acked {
		if !decided[id] {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged jobs never decided: the restart dropped their unsynced records", missing, len(acked))
	}
}

// TestFailedRestartBacksOff: a rebuild that fails is retried with backoff
// and reported in the dead shard's status until one succeeds; a shard
// that keeps dying right after its restarts waits out a doubling
// crash-loop backoff; and Stop does not wait out a backoff — it ends
// restarts at once.
func TestFailedRestartBacksOff(t *testing.T) {
	var builds atomic.Int32
	var broken atomic.Bool
	fl, err := New(Config{
		Env: testEnv(t), Shards: 2, Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(),
		NewScheduler: func(shard int, _ []region.ID) (cluster.Scheduler, error) {
			if shard == 0 {
				if n := builds.Add(1); n == 2 || n == 3 || broken.Load() {
					return nil, errors.New("injected build failure")
				}
			}
			return newScheduler(t, false), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			fl.Stop()
		}
	}()
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	start := time.Now()
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	waitFor("the failed rebuild in status", func() bool {
		return strings.Contains(fl.ShardStatus(0).Err, "injected build failure")
	})
	waitFor("the third rebuild", func() bool { return fl.Status().Restarts == 1 })
	if took := time.Since(start); took < restartBackoffMin+2*restartBackoffMin {
		t.Fatalf("two failed rebuilds retried in %v, want the %v+%v backoff", took, restartBackoffMin, 2*restartBackoffMin)
	}
	if st := fl.ShardStatus(0); st.Down || st.Err != "" || builds.Load() != 4 {
		t.Fatalf("after the rebuild: down %v, err %q, %d builds", st.Down, st.Err, builds.Load())
	}

	// That restart waited 2*restartBackoffMin. A death right after it is a
	// crash loop, and each such restart waits twice what the one before
	// it waited.
	t0 := time.Now()
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	waitFor("the crash-loop restart", func() bool { return fl.Status().Restarts == 2 })
	if took := time.Since(t0); took < 4*restartBackoffMin {
		t.Fatalf("a crash loop restarted in %v, want twice the last restart's %v wait", took, 2*restartBackoffMin)
	}
	broken.Store(true)
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * restartBackoffMin)
	if n := builds.Load(); n != 5 {
		t.Fatalf("the next crash-loop restart rebuilt before its %v wait (%d builds)", 8*restartBackoffMin, n)
	}
	if st := fl.ShardStatus(0); !st.Down || !strings.Contains(st.LastErr, "shard down") {
		t.Fatalf("killed shard: down %v, last err %q", st.Down, st.LastErr)
	}
	waitFor("the crash-loop rebuild attempt", func() bool { return builds.Load() > 5 })
	t0 = time.Now()
	fl.Stop()
	stopped = true
	if took := time.Since(t0); took > restartBackoffMax/2 {
		t.Fatalf("Stop waited %v on a restart backoff", took)
	}
}

// TestKilledLaggingShardReleasesMerge: on an in-memory service, killing
// the shard that holds the merge back releases the live shard's
// decisions to a subscriber, with no further round on the dead shard.
// Shard 0 drained before the kill, so the kill is the only event that can
// wake the pusher.
func TestKilledLaggingShardReleasesMerge(t *testing.T) {
	const jobs = 40
	srv, sub := heldMerge(t, jobs)
	if err := srv.KillShard(1); err != nil {
		t.Fatal(err)
	}
	got := sub.readDecisions(jobs, 10*time.Second)
	for i, d := range got {
		if d.Seq != uint64(i+1) || d.Shard != 0 {
			t.Fatalf("decision %d: seq %d shard %d, want seq %d from shard 0", i, d.Seq, d.Shard, i+1)
		}
	}
	if st := srv.ShardStatus(1); !st.Down || st.Rounds != 0 {
		t.Fatalf("dead shard: down %v, %d rounds; want down with none", st.Down, st.Rounds)
	}
}
