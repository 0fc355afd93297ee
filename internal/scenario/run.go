package scenario

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/trace"
)

// Epoch is the fixed simulated-time anchor every scenario runs at: the
// environment starts here and the trace arrives from here. A fixed
// anchor (rather than wall now) keeps synthetic-feed scenarios
// bit-reproducible run to run.
var Epoch = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// RunOptions parameterizes one execution of a spec.
type RunOptions struct {
	// DataDir is the WAL root for durable specs; empty uses a fresh
	// temporary directory, removed after the run.
	DataDir string
	// Timeout bounds the whole run (default 4 minutes — generous; the
	// bundled specs finish in seconds).
	Timeout time.Duration
	// Logf, when set, receives progress lines (fault onsets/clears).
	Logf func(format string, args ...any)
}

// BuildTrace generates the spec's job trace — exposed so the no-fault
// equivalence test can replay the identical jobs through a plain service.
// The trace round-trips through the CSV encoding first, quantizing
// timestamps and energies exactly the way a file-fed replay would.
func BuildTrace(s Spec) ([]*trace.Job, error) {
	ids := make([]region.ID, 0)
	for _, r := range region.Defaults() {
		ids = append(ids, r.ID)
	}
	cfg := trace.Config{
		Start: Epoch, Duration: time.Duration(s.Hours) * time.Hour,
		JobsPerDay: s.JobsPerDay, Regions: ids, Seed: s.Seed,
	}
	var jobs []*trace.Job
	var err error
	switch s.Arrival.Program {
	case ArrivalSteady:
		jobs, err = trace.GenerateSteady(cfg)
	case ArrivalDiurnal:
		jobs, err = trace.GenerateBorgLike(cfg)
	case ArrivalBursty:
		jobs, err = trace.GenerateAlibabaLike(cfg)
	case ArrivalFlash:
		jobs, err = trace.GenerateFlashCrowd(trace.FlashConfig{
			Config:        cfg,
			FlashAt:       s.Arrival.FlashAt.Std(),
			FlashDuration: s.Arrival.FlashDuration.Std(),
			FlashMult:     s.Arrival.FlashMult,
		})
	default:
		err = fmt.Errorf("scenario %s: unknown arrival program %q", s.Name, s.Arrival.Program)
	}
	if err != nil {
		return nil, err
	}
	return roundTripCSV(jobs)
}

// pacedScheduler stretches each round by a fixed wall delay, delegating
// decisions unchanged — it gives round-indexed fault windows real time
// to land in without touching the decision stream.
type pacedScheduler struct {
	cluster.Scheduler
	delay time.Duration
}

// Schedule implements cluster.Scheduler with the added delay.
func (p pacedScheduler) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.Scheduler.Schedule(ctx)
}

// run carries one execution's wiring.
type run struct {
	spec  Spec
	opt   RunOptions
	chaos *feed.Chaos
	env   *region.Environment
	srv   *server.Server
	jobs  []*trace.Job

	fsyncDelay atomic.Int64 // injected WAL fsync latency, ns

	// Submitter-side accounting: a dead shard's refusals die with it (a
	// restart recovers its counters from disk), so the rejected
	// fraction SLO is measured where the client stands.
	submitted, rejected int

	maxStaleness float64 // max feed staleness seen at any driver poll, s
	recovered    bool    // awaitFresh saw feed health clear after the schedule
	faultLog     []string
	decisions    []server.MergedDecision // the settled merged stream (evaluate)
}

// Run executes one scenario spec end to end and returns its report. The
// report's Pass field summarizes the SLO checks; Run returns an error
// only for harness failures (invalid spec, build errors, timeouts), not
// for SLO misses.
func Run(s Spec, opt RunOptions) (*Report, error) {
	rep, _, err := runFull(s, opt)
	return rep, err
}

// runFull is Run plus the merged decision stream, for the equivalence
// tests that compare a scenario run decision-for-decision against a
// plain replay.
func runFull(s Spec, opt RunOptions) (*Report, []server.MergedDecision, error) {
	s, err := s.WithDefaults()
	if err != nil {
		return nil, nil, err
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 4 * time.Minute
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	r := &run{spec: s, opt: opt}
	if err := r.buildEnv(); err != nil {
		return nil, nil, err
	}
	if r.jobs, err = BuildTrace(s); err != nil {
		return nil, nil, err
	}
	dataDir := ""
	if s.Durable {
		dataDir = opt.DataDir
		if dataDir == "" {
			tmp, err := os.MkdirTemp("", "waterwise-scenario-*")
			if err != nil {
				return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			defer os.RemoveAll(tmp)
			dataDir = tmp
		}
	}
	cfg := server.Config{
		Env: r.env, Shards: s.Shards, Tolerance: 0.5,
		Round: s.Round.Std(), QueueCap: s.QueueCap, DataDir: dataDir,
		// Accelerated runs compress hours into milliseconds, so the WAL
		// group-commit clock must compress too or a whole scenario fits
		// inside one default sync interval and fsync faults never land.
		SyncInterval: 2 * time.Millisecond,
		NewScheduler: func(shard int, regions []region.ID) (cluster.Scheduler, error) {
			sched, err := core.New(core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return pacedScheduler{Scheduler: sched, delay: s.Pacing.Std()}, nil
		},
		WALSyncDelay: func() time.Duration { return time.Duration(r.fsyncDelay.Load()) },
	}
	if len(s.Objectives) > 0 || len(s.SLOs.Windows) > 0 {
		// Sync mode, deliberately: the scrape runs inline on the round
		// thread, so every round lands in the store and windowed
		// assertions see a round-exact history — async coalescing under
		// CPU pressure can collapse a whole run into one scrape, leaving
		// every asserted window empty. Sync scraping is safe here because
		// recorded specs submit their trace up front: with no mid-run
		// submission pacing to perturb, stretching a round cannot change
		// any decision (TestRecorderEquivalence pins this).
		cfg.Record = server.RecordConfig{
			Enable: true,
			Sync:   true,
			SLOs:   s.Objectives,
			Logf:   opt.Logf,
		}
	}
	if r.srv, err = server.New(cfg); err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	started := time.Now()
	report, err := r.execute()
	if err != nil {
		return nil, nil, err
	}
	report.WallMs = float64(time.Since(started).Microseconds()) / 1000
	report.StartedAt = started.UTC()
	return report, r.decisions, nil
}

// buildEnv wires the environment: a deterministic synthetic feed behind
// the chaos switch, served either directly (provider view) or through a
// feed.Live provider fetching over the chaos transport (live view).
func (r *run) buildEnv() error {
	s := r.spec
	regions := region.Defaults()
	specs := make([]feed.SyntheticRegion, len(regions))
	keys := make([]string, len(regions))
	for i, rg := range regions {
		specs[i] = feed.SyntheticRegion{Key: string(rg.ID), Grid: rg.Grid, Climate: rg.Climate}
		keys[i] = string(rg.ID)
	}
	inner, err := feed.NewSynthetic(specs, Epoch, s.Hours, s.Seed)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	r.chaos = feed.NewChaos(inner)
	var prov feed.Provider = r.chaos
	if s.LiveFeed {
		// Small real-time windows: scenario wall time is milliseconds per
		// round, so the TTL → stale → forecast ladder must turn over in
		// milliseconds too.
		live, err := feed.NewLive(feed.LiveConfig{
			BaseURL: "http://scenario.chaos", Regions: keys,
			TTL: 5 * time.Millisecond, MinInterval: time.Millisecond,
			ForecastAfter: 15 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			Timeout: time.Second,
			Client:  &http.Client{Transport: r.chaos.Transport()},
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		prov = live
		// Prime every region so round one schedules over fetched (not
		// zero-valued cold) readings.
		deadline := time.Now().Add(2 * time.Second)
		for _, key := range keys {
			for {
				if smp, err := live.At(key, Epoch); err == nil && len(smp.Mix) > 0 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("scenario %s: live feed never primed region %s", s.Name, key)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	r.env, err = region.NewEnvironmentWithProvider(regions, energy.Table, Epoch, s.Hours, prov)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// execute runs the trace under the fault schedule and evaluates SLOs.
func (r *run) execute() (*Report, error) {
	s := r.spec
	ctx, cancel := context.WithTimeout(context.Background(), r.opt.Timeout)
	defer cancel()
	defer r.srv.Stop()

	// Upfront: the whole trace before Start (the replay discipline —
	// Start seals the backlog durably). Paced: prefill the first rounds,
	// feed the rest from the driver loop.
	next := 0
	if s.Submit == SubmitUpfront {
		next = len(r.jobs)
		for _, j := range r.jobs {
			r.submit(j)
		}
	} else {
		for next < len(r.jobs) && r.submitRound(r.jobs[next]) <= 2 {
			r.submit(r.jobs[next])
			next++
		}
	}
	r.srv.Start()
	if err := r.drive(ctx, next); err != nil {
		return nil, err
	}
	if err := r.srv.Drain(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("scenario %s: timed out draining: %w", s.Name, ctx.Err())
		}
		return nil, fmt.Errorf("scenario %s: drain: %w", s.Name, err)
	}
	r.srv.Stop()
	if s.SLOs.RequireFreshAtEnd {
		r.recovered = r.awaitFresh(ctx)
	}
	return r.evaluate()
}

// submitRound maps a job to the round (1-based) that first schedules it.
func (r *run) submitRound(j *trace.Job) uint64 {
	rd := r.spec.Round.Std()
	off := j.Submit.Sub(Epoch)
	return uint64((off+rd-1)/rd) + 1
}

// submit routes one job through the service, keeping submitter-side
// accept/reject accounting.
func (r *run) submit(j *trace.Job) {
	id := j.ID
	_, err := r.srv.Submit(server.JobSpec{
		ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
		DurationSec: j.Duration.Seconds(), EnergyKWh: float64(j.Energy),
		EstDurationSec: j.EstDuration.Seconds(), EstEnergyKWh: float64(j.EstEnergy),
	})
	r.submitted++
	if err != nil {
		r.rejected++
	}
}

// faultState tracks one schedule entry through its lifecycle.
type faultState struct {
	spec     FaultSpec
	applied  bool
	resolved bool
	prevCap  int // queue_squeeze restore value
}

// drive is the fault driver and paced feeder: poll round progress, fire
// and clear faults at their windows, feed the trace (paced mode), and
// sample feed health — until the schedule is resolved and the trace
// fully submitted.
func (r *run) drive(ctx context.Context, next int) error {
	faults := make([]*faultState, len(r.spec.Faults))
	for i := range r.spec.Faults {
		faults[i] = &faultState{spec: r.spec.Faults[i]}
	}
	poll := r.spec.Pacing.Std() / 4
	if poll < 200*time.Microsecond {
		poll = 200 * time.Microsecond
	}
	for {
		if ctx.Err() != nil {
			return fmt.Errorf("scenario %s: timed out driving the fault schedule: %w", r.spec.Name, ctx.Err())
		}
		progress, idle := r.progress()
		ahead := progress + 2
		if idle && next < len(r.jobs) {
			// A drained fleet parks instead of stepping rounds, so its round
			// count never reaches a next arrival more than two rounds out:
			// feed that arrival's round now, or the run waits forever.
			ahead = max(ahead, r.submitRound(r.jobs[next]))
		}
		for next < len(r.jobs) && r.submitRound(r.jobs[next]) <= ahead {
			r.submit(r.jobs[next])
			next++
		}
		if h := feed.HealthOf(r.env.Provider()); h.StalenessSeconds > r.maxStaleness {
			r.maxStaleness = h.StalenessSeconds
		}
		allDone := next >= len(r.jobs)
		for _, f := range faults {
			r.step(f, progress)
			if !f.resolved {
				allDone = false
			}
		}
		if allDone {
			return nil
		}
		time.Sleep(poll)
	}
}

// progress is the run's round clock: the most rounds any shard has
// completed (dead shards hold their pre-crash count, live shards keep
// advancing, so the clock never stalls during a kill window). idle
// reports that no shard has anything queued or pending.
func (r *run) progress() (rounds uint64, idle bool) {
	idle = true
	for i := 0; i < r.spec.Shards; i++ {
		st := r.srv.ShardStatus(i)
		rounds = max(rounds, st.Rounds)
		idle = idle && st.Pending+st.Future == 0
	}
	return rounds, idle
}

// step advances one fault through apply/clear against the round clock.
func (r *run) step(f *faultState, progress uint64) {
	if !f.applied {
		if progress < f.spec.AtRound {
			return
		}
		r.apply(f)
		f.applied = true
		r.faultLog = append(r.faultLog, f.spec.String())
		r.opt.Logf("scenario %s: fault %s fired at round %d", r.spec.Name, f.spec, progress)
		if f.spec.Rounds == 0 && f.spec.Kind != FaultKillShard {
			f.resolved = true // holds to the end by design
		}
		return
	}
	if f.resolved {
		return
	}
	if f.spec.Kind == FaultKillShard {
		// Resolved when the service has brought the shard back.
		if !r.srv.ShardStatus(f.spec.Shard).Down {
			f.resolved = true
			r.opt.Logf("scenario %s: service recovered shard %d by round %d", r.spec.Name, f.spec.Shard, progress)
		}
		return
	}
	if progress < f.spec.AtRound+f.spec.Rounds {
		return
	}
	r.clear(f)
	f.resolved = true
	r.opt.Logf("scenario %s: fault %s cleared at round %d", r.spec.Name, f.spec, progress)
}

// apply fires one fault.
func (r *run) apply(f *faultState) {
	switch f.spec.Kind {
	case FaultFeedOutage:
		r.chaos.SetFault(feed.FaultOutage, 0)
	case FaultFeedThrottle:
		r.chaos.SetFault(feed.FaultThrottle, f.spec.RetryAfter.Std())
	case FaultKillShard:
		_ = r.srv.KillShard(f.spec.Shard)
	case FaultQueueSqueeze:
		f.prevCap = r.srv.ShardStatus(0).QueueCap
		r.srv.SetQueueCap(f.spec.Cap)
	case FaultSlowFsync:
		r.fsyncDelay.Store(int64(f.spec.Delay.Std()))
	}
}

// clear ends one windowed fault.
func (r *run) clear(f *faultState) {
	switch f.spec.Kind {
	case FaultFeedOutage, FaultFeedThrottle:
		r.chaos.SetFault(feed.FaultNone, 0)
	case FaultQueueSqueeze:
		r.srv.SetQueueCap(f.prevCap)
	case FaultSlowFsync:
		r.fsyncDelay.Store(0)
	}
}

// awaitFresh polls the provider until feed health clears (or a short
// deadline passes) and reports whether it did — the post-outage recovery
// the RequireFreshAtEnd SLO asserts. Live providers refresh on At, so the
// poll itself drives the re-fetch. The SLO is judged on this observation,
// not on a later re-read: scenario TTLs are milliseconds, so a reading
// seen fresh here has aged out again by the time evaluate runs on a slow
// (raced) build.
func (r *run) awaitFresh(ctx context.Context) bool {
	prov := r.env.Provider()
	keys := prov.Regions()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		for _, key := range keys {
			_, _ = prov.At(key, Epoch)
		}
		if h := feed.HealthOf(prov); !h.Stale {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
