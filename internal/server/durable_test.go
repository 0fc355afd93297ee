package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/wal"
)

// decision lets sameDecisionStream compare a shard's log and the merged
// one: MergedDecision inherits it, carrying its global seq.
func (d Decision) decision() Decision { return d }

// sameDecisionStream asserts two decision streams are decision-for-
// decision identical — sequence, job, placement, times, footprints —
// excluding DecidedWall (a wall-clock stamp that legitimately differs
// between any two processes).
func sameDecisionStream[D interface{ decision() Decision }](t *testing.T, got, want []D) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decision stream length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i].decision(), want[i].decision()
		if g.Seq != w.Seq || g.JobID != w.JobID || g.Region != w.Region ||
			!g.Round.Equal(w.Round) || !g.Start.Equal(w.Start) || !g.Finish.Equal(w.Finish) ||
			g.CarbonG != w.CarbonG || g.WaterL != w.WaterL {
			t.Fatalf("decision %d diverged:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
}

// ringPage reads up to limit decisions with Seq > since from a shard's
// ring, whose partition is regions, through the edge conversion.
func ringPage(r *Ring[decRecord], regions []region.ID, since uint64, limit int) []Decision {
	lo, hi := r.Span(since, limit)
	page := make([]Decision, 0, hi-lo)
	for c := range r.Chunks(lo, hi) {
		for i := range c {
			page = append(page, c[i].decision(regions))
		}
	}
	return page
}

// encodeDecisions is encodeRoundRecord over decisions in their public
// form: each becomes a record indexing a region table built from their
// regions in order of appearance.
func encodeDecisions(k int64, seqAfter uint64, ds []Decision) []byte {
	var regions []region.ID
	recs := make([]decRecord, len(ds))
	for i := range ds {
		ri := slices.Index(regions, ds[i].Region)
		if ri < 0 {
			ri, regions = len(regions), append(regions, ds[i].Region)
		}
		recs[i] = record(&ds[i], ri, 0)
	}
	return encodeRoundRecord(k, seqAfter, recs, regions)
}

// durableConfig is the standard test configuration with durability on.
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5,
		Round: time.Minute, DataDir: dir, SnapshotEvery: 100,
	}
}

// throttledSched delays each round by a fixed wall-clock amount and
// delegates the decisions unchanged — it stretches an accelerated run in
// real time without touching its output, so a mid-run crash has a
// reliable window to land in on any machine.
type throttledSched struct {
	cluster.Scheduler
	delay time.Duration
}

func (s throttledSched) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	time.Sleep(s.delay)
	return s.Scheduler.Schedule(ctx)
}

// TestCrashRestartEquivalence is the server-level crash-equivalence
// proof: kill the service mid-run (dropping the WAL's unsynced buffer,
// as a SIGKILL would), restart it over the same data directory, and the
// full decision stream — recovered prefix plus post-restart suffix —
// must be identical to an uninterrupted run of the same trace.
func TestCrashRestartEquivalence(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 24)

	// Uninterrupted reference run (no durability).
	ref, err := New(Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := ref.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	ref.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := ref.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ref.Stop()
	want := ref.Decisions(0, 0)
	if len(want) != len(jobs) {
		t.Fatalf("reference run decided %d of %d jobs", len(want), len(jobs))
	}

	// Durable run, killed mid-drain (throttled so the kill window is wide).
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Scheduler = throttledSched{Scheduler: cfg.Scheduler, delay: 500 * time.Microsecond}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	for srv.Status().Decisions < uint64(len(jobs))/3 {
		time.Sleep(time.Millisecond)
	}
	srv.Crash()
	atCrash := srv.Status().Decisions
	if atCrash >= uint64(len(jobs)) {
		t.Fatalf("crash landed after the run finished (%d decisions); nothing recovered", atCrash)
	}

	// Restart over the same directory and finish the trace.
	srv2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Stop()
	st := srv2.Status()
	if st.WAL == nil {
		t.Fatal("recovered server reports no wal block")
	}
	if !st.WAL.RecoveredSnapshot && st.WAL.RecoveredRecords == 0 {
		t.Fatalf("recovery restored nothing: %+v", st.WAL)
	}
	srv2.Start()
	if err := srv2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got := srv2.Decisions(0, 0)
	sameDecisionStream(t, got, want)
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("seq gap after recovery: decision %d has seq %d", i, d.Seq)
		}
	}
}

// TestDrainSnapshotCleanRestart is the clean-shutdown fast path: after a
// Drain (and the Stop that follows), the snapshot must fully cover the
// log, so the next start replays zero records and resumes with identical
// state.
func TestDrainSnapshotCleanRestart(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 500, 12)
	dir := t.TempDir()
	srv, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	want := srv.Decisions(0, 0)
	wantStatus := srv.Status()
	srv.Stop()

	srv2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatalf("clean restart: %v", err)
	}
	defer srv2.Stop()
	st := srv2.Status()
	if st.WAL == nil || !st.WAL.RecoveredSnapshot {
		t.Fatalf("clean restart did not load a snapshot: %+v", st.WAL)
	}
	if st.WAL.RecoveredRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", st.WAL.RecoveredRecords)
	}
	if st.Accepted != wantStatus.Accepted || st.Decisions != wantStatus.Decisions || st.LastSeq != wantStatus.LastSeq {
		t.Fatalf("restarted state %+v, want accepted=%d decisions=%d lastSeq=%d",
			st, wantStatus.Accepted, wantStatus.Decisions, wantStatus.LastSeq)
	}
	sameDecisionStream(t, srv2.Decisions(0, 0), want)
}

// TestDedupeAcrossRestart: a client retrying an already-decided
// submission after the server restarts gets its original id back instead
// of ErrDuplicateID; the same id with a different spec still conflicts.
func TestDedupeAcrossRestart(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 1000, 12)
	dir := t.TempDir()
	srv, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
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
	srv.Stop()

	srv2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	accepted := srv2.Status().Accepted
	for _, j := range jobs[:10] {
		id, err := srv2.Submit(specFor(j))
		if err != nil || id != j.ID {
			t.Fatalf("retry of decided job %d: got (%d, %v), want (%d, nil)", j.ID, id, err, j.ID)
		}
	}
	st := srv2.Status()
	if st.Accepted != accepted {
		t.Fatalf("retries created jobs: accepted %d -> %d", accepted, st.Accepted)
	}
	if st.WAL == nil || st.WAL.Deduped != 10 {
		t.Fatalf("deduped counter: %+v, want 10", st.WAL)
	}
	// A conflicting spec for a live (not yet decided) id is still the
	// duplicate-id error — dedupe never silently swallows a different job.
	freshID := 1 << 20
	fresh := JobSpec{ID: &freshID, Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(48 * time.Hour)}
	if _, err := srv2.Submit(fresh); err != nil {
		t.Fatal(err)
	}
	conflict := fresh
	conflict.EnergyKWh += 1
	if _, err := srv2.Submit(conflict); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("conflicting retry: got %v, want ErrDuplicateID", err)
	}
}

// TestWALStatusAndMetricsExposed: a durable server surfaces the wal
// block on /v1/status and the waterwise_wal_* series on /metrics, so an
// operator can watch fsync stalls and recovery cost without shell access
// to the data directory.
func TestWALStatusAndMetricsExposed(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 500, 12)
	srv, err := New(durableConfig(t, t.TempDir()))
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st Status
	resp, err := http.Get(ts.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.WAL == nil || st.WAL.Appended == 0 || st.WAL.Fsyncs == 0 || st.WAL.Segments == 0 {
		t.Fatalf("status wal block: %+v", st.WAL)
	}
	if st.WAL.Synced != st.WAL.Appended {
		t.Fatalf("drained server has unsynced records: %+v", st.WAL)
	}

	resp, err = http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, key := range []string{
		"waterwise_wal_records_appended_total",
		"waterwise_wal_records_synced_total",
		"waterwise_wal_fsyncs_total",
		"waterwise_wal_fsync_stall_p99_ms",
		"waterwise_wal_segments",
		"waterwise_wal_snapshots_total",
		"waterwise_jobs_deduped_total",
	} {
		if !strings.Contains(raw.String(), key) {
			t.Errorf("metrics missing %q", key)
		}
	}
}

// TestRecoveryRefusesDivergedConfig: a data directory recovered under a
// configuration that re-derives different decisions than the log
// recorded, or whose round record no longer matches the round, must be
// refused by the replay checksum rather than resumed with renumbered
// history. Each case names the divergence check it has to reach through
// the round body live rounds and replay share.
func TestRecoveryRefusesDivergedConfig(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 500, 12)
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.SnapshotEvery = 1 << 30 // keep everything in the log
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	for srv.Status().Decisions < 50 {
		time.Sleep(time.Millisecond)
	}
	// Serve the decisions so the group commit puts their rounds on disk:
	// divergence only matters for history somebody has seen.
	if got := srv.Decisions(0, 0); len(got) < 50 {
		t.Fatalf("served only %d decisions", len(got))
	}
	srv.Crash()

	// dropLastDecision rewrites the log into a fresh directory with the
	// last decision cut off the first round record that has two or more.
	dropLastDecision := func(t *testing.T) string {
		out := t.TempDir()
		src, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "shard-0")})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		dst, err := wal.Open(wal.Options{Dir: filepath.Join(out, "shard-0")})
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		cut := false
		if err := src.Replay(0, func(_ uint64, p []byte) error {
			rec, err := decodeRecord(p)
			if err != nil {
				return err
			}
			if n := len(rec.decisions); !cut && n >= 2 {
				p, cut = encodeDecisions(rec.k, rec.seqAfter, rec.decisions[:n-1]), true
			}
			_, err = dst.Append(p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !cut {
			t.Fatal("log holds no round record with two decisions")
		}
		return out
	}

	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, c *Config)
		want   string // the divergence check's message
	}{
		{"round cadence", func(_ *testing.T, c *Config) { c.Round = 30 * time.Second }, ""},
		{"tolerance", func(_ *testing.T, c *Config) { c.Tolerance = 0 }, "re-derived job"},
		{"truncated round record", func(t *testing.T, c *Config) { c.DataDir = dropLastDecision(t) }, "decisions, log has"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := durableConfig(t, dir)
			bad.SnapshotEvery = 1 << 30
			tc.mutate(t, &bad)
			_, err := New(bad)
			if !errors.Is(err, ErrReplayDiverged) {
				t.Fatalf("recovery under a diverged %s: got %v, want ErrReplayDiverged", tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("recovery under a diverged %s reached the wrong check: %v (want %q)", tc.name, err, tc.want)
			}
		})
	}
}

// TestDataDirLayouts: a data directory from before the one layout rule
// either recovers decision-identically or is refused with an error that
// names the layout — never started empty. A fleet kept shard i under
// shard-<i>, which is the rule; a single server kept its log at the top
// level.
func TestDataDirLayouts(t *testing.T) {
	jobs := genTrace(t, testEnv(t), 500, 12)
	cfg := func(dir string, shards int) Config {
		return Config{Env: testEnv(t), NewScheduler: coreFactory(t), Shards: shards,
			Tolerance: 0.5, Round: time.Minute, DataDir: dir}
	}
	// served replays the trace into dir, reads everything back (which
	// commits it) and crash-stops: the merged stream a restart must equal.
	served := func(c Config) []MergedDecision {
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
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
		want := srv.Decisions(0, 0)
		srv.Crash()
		return want
	}
	recovers := func(c Config, want []MergedDecision) {
		t.Helper()
		srv, err := New(c)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer srv.Stop()
		if st := srv.Status(); st.WAL == nil || (!st.WAL.RecoveredSnapshot && st.WAL.RecoveredRecords == 0) {
			t.Fatalf("started empty: %+v", st.WAL)
		}
		sameMergedStream(t, srv.Decisions(0, 0), want)
	}
	// move renames every file (not directory) in from into to.
	move := func(from, to string) {
		t.Helper()
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if err := os.Rename(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("fleet", func(t *testing.T) {
		dir := t.TempDir()
		recovers(cfg(dir, 2), served(cfg(dir, 2)))
	})
	t.Run("single server", func(t *testing.T) {
		dir := t.TempDir()
		want := served(cfg(dir, 1))
		shard0 := filepath.Join(dir, "shard-0")
		move(shard0, dir)
		if err := os.Remove(shard0); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg(dir, 1)); err == nil || !strings.Contains(err.Error(), "shard-0") {
			t.Fatalf("top-level log: got %v, want an error naming shard-0", err)
		}
		if _, err := os.Stat(shard0); !os.IsNotExist(err) {
			t.Fatalf("the refused start left %s behind: %v", shard0, err)
		}
		if err := os.Mkdir(shard0, 0o755); err != nil {
			t.Fatal(err)
		}
		move(dir, shard0)
		recovers(cfg(dir, 1), want)
	})
}

// TestRestartKeepsMergedSeqs: decisions a previous process merged and the
// shard rings have since evicted are neither renumbered nor counted lost
// after a restart of a sharded service.
func TestRestartKeepsMergedSeqs(t *testing.T) {
	dir := t.TempDir()
	config := func() Config {
		return Config{Env: testEnv(t), NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5,
			Round: time.Minute, DataDir: dir, DecisionLogCap: 8}
	}
	srv, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Batches smaller than the ring, each drained (and so merged) before
	// the next: nothing is lost while the process lives.
	for b := 0; b < 5; b++ {
		for i := 0; i < 6; i++ {
			spec := JobSpec{Benchmark: "canneal", Home: region.Oregon, Submit: testStart.Add(time.Duration(6*b+i) * time.Minute)}
			if _, err := srv.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := srv.Decisions(0, 0)
	srv.Stop()
	if len(want) != 8 || want[7].Seq != 30 {
		t.Fatalf("merged ring holds %d decisions ending at seq %d, want 8 ending at 30", len(want), want[len(want)-1].Seq)
	}

	back, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Stop()
	sameMergedStream(t, back.Decisions(0, 0), want)
	if st := back.Status(); st.Lost != 0 || st.LastSeq != 30 {
		t.Fatalf("restarted service: lost %d, last seq %d, want 0 and 30", st.Lost, st.LastSeq)
	}
}

// goldenSpecs are the three submissions behind the golden WAL fixtures:
// two due in round 1, one still queued when the snapshot is taken.
func goldenSpecs() []JobSpec {
	id := func(n int) *int { return &n }
	return []JobSpec{
		{ID: id(7), Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(10 * time.Second)},
		{ID: id(8), Benchmark: "dedup", Home: region.Mumbai, Submit: testStart.Add(20 * time.Second),
			DurationSec: 90.5, EnergyKWh: 0.25, EstDurationSec: 80, EstEnergyKWh: 0.2},
		{ID: id(9), Benchmark: "canneal", Home: region.Oregon, Submit: testStart.Add(5 * time.Hour)},
	}
}

// TestGoldenWALBytes pins the on-disk payloads — a job record, a round
// record carrying two decisions (one with a zero DecidedWall), and a v1
// snapshot of a small non-empty server — against fixtures the commit
// before the shared round body wrote: a data directory from before it must
// recover after it, and what this code writes must still read there. Both
// directions run through the shared admit and round transitions.
func TestGoldenWALBytes(t *testing.T) {
	golden := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", name, err)
		}
		return b
	}
	fresh := func() *shard {
		return testShard(t, Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5,
			Round: time.Minute, DecisionLogCap: 8})
	}
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed:\n got %x\nwant %x\non-disk compatibility break — bump snapVersion / add a record type, or revert", what, got, want)
		}
	}

	srv := fresh()
	for i, spec := range goldenSpecs() {
		job, err := srv.buildJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := encodeJobRecord(job, specDigest(spec))
		if i == 1 {
			same("job record encoding", rec, golden("wal_job_v1"))
		}
		if err := srv.replayRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	round := golden("wal_round_v1")
	if err := srv.replayRecord(round); err != nil {
		t.Fatalf("replaying the golden round record: %v", err)
	}
	ds := ringPage(&srv.decisions, srv.regions, 0, 0)
	if len(ds) != 2 || !ds[0].DecidedWall.IsZero() || ds[1].DecidedWall.IsZero() {
		t.Fatalf("golden round published %+v, want two decisions, the first with a zero DecidedWall", ds)
	}
	same("round record encoding", encodeDecisions(1, 2, ds), round)

	// The counters below are not derived from the records: two are
	// wall-measured or client-driven, pinned to the fixture's values.
	srv.overheadSum, srv.rejected, srv.deduped = 1500*time.Microsecond, 3, 1
	snap := golden("snapshot_v1")
	same("snapshot encoding", srv.marshalSnapshotLocked(), snap)

	restored := fresh()
	if err := restored.restoreSnapshot(snap); err != nil {
		t.Fatalf("restoring the golden snapshot: %v", err)
	}
	same("snapshot after a restore round trip", restored.marshalSnapshotLocked(), snap)
	sameDecisionStream(t, ringPage(&restored.decisions, restored.regions, 0, 0), ds)
	if st := restored.Status(); st.Future != 1 || st.Accepted != 3 || st.LastSeq != 2 {
		t.Errorf("restored server: future %d accepted %d last seq %d, want 1, 3, 2", st.Future, st.Accepted, st.LastSeq)
	}
}

// TestPacedRecoveryResumesClock: in paced mode the simulated clock must
// continue from the recovered round clock after a restart, not reset to
// the environment start.
func TestPacedRecoveryResumesClock(t *testing.T) {
	dir := t.TempDir()
	cfg := func() Config {
		return Config{
			Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5,
			Round: time.Minute, TimeScale: 600, DataDir: dir, // 100ms wall per round
		}
	}
	srv, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: region.Zurich, Submit: testStart.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Status().Decisions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("paced round never decided")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Stop()
	simNow := srv.Status().SimNow

	srv2, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	if got := srv2.Status().SimNow; got.Before(simNow) {
		t.Fatalf("recovered clock %v behind pre-restart clock %v", got, simNow)
	}
	srv2.Start()
	// A live (zero-Submit) job must be stamped at or after the recovered
	// clock and decided in a later round — the clock never rewinds.
	if _, err := srv2.Submit(JobSpec{Benchmark: "canneal", Home: region.Zurich}); err != nil {
		t.Fatal(err)
	}
	for srv2.Status().Decisions < 2 {
		if time.Now().After(deadline) {
			t.Fatal("post-restart paced round never decided")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ds := srv2.Decisions(0, 0)
	last := ds[len(ds)-1]
	if last.Round.Before(simNow) {
		t.Fatalf("post-restart decision round %v precedes recovered clock %v", last.Round, simNow)
	}
}

// BenchmarkWALRecovery measures the cold restart path: recover a server
// from a log holding a full trace of decisions and no snapshot (the
// worst case — every record replays through the simulator). The trace
// mirrors BenchmarkFleetReplay's (~29k jobs over 24h); the repo's
// benchmark times recovery end to end in durable-replay (bench/README.md).
func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	mk := func() Config {
		return Config{
			Env: testEnv(b), Scheduler: newScheduler(b), Tolerance: 0.5,
			Round: time.Minute, DataDir: dir, SnapshotEvery: 1 << 30,
		}
	}
	jobs := genTrace(b, testEnv(b), 30000, 24)
	srv, err := New(mk())
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			b.Fatal(err)
		}
	}
	srv.Start()
	// Settle without Drain: Drain would snapshot and erase the replay work
	// this benchmark exists to measure.
	for {
		st := srv.Status()
		if st.Pending+st.Future == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Serve the stream once: the read-path group commit seals the whole
	// log, so every decision counted below survives the Crash.
	srv.Decisions(0, 0)
	decided := srv.Status().Decisions
	srv.Crash()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := New(mk())
		if err != nil {
			b.Fatal(err)
		}
		if got := rec.Status().Decisions; got != decided {
			b.Fatalf("recovered %d decisions, want %d", got, decided)
		}
		b.ReportMetric(float64(rec.Status().WAL.RecoveryMs), "recovery_ms")
		rec.Crash() // leave the log intact for the next iteration
	}
}
