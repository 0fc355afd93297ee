package scenario

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/tsdb"
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

// liveTTL is the live feed's cache TTL in a scenario. Rounds take
// milliseconds, so the TTL → stale → forecast ladder must too: live-feed
// runs let one TTL of wall time pass after every round.
const liveTTL = 5 * time.Millisecond

// run carries one execution's wiring.
type run struct {
	spec  Spec
	opt   RunOptions
	chaos *feed.Chaos
	env   *region.Environment
	srv   *server.Server
	jobs  []*trace.Job

	fsyncDelay atomic.Int64   // injected WAL fsync latency, ns
	kills      sync.WaitGroup // KillShard calls the round hook started (see apply)
	// Written once the service has stopped.
	recovered bool                    // awaitFresh saw feed health clear after the schedule
	decisions []server.MergedDecision // the settled merged stream (evaluate)

	// mu guards the rest: every shard's round hook reads and writes it.
	mu    sync.Mutex
	feeds [][]*trace.Job // each shard's home-region jobs not yet submitted (paced)
	// Submitter-side accounting: a dead shard's refusals die with it (a
	// restart recovers its counters from disk), so the rejected
	// fraction SLO is measured where the client stands.
	submitted, rejected int
	// rounds is the run's round clock: the most rounds any shard has
	// completed, so it never stalls while a killed shard is down.
	rounds       uint64
	faults       []faultState
	settled      bool    // a Drain left nothing to feed: no fault fires from now on
	maxStaleness float64 // max feed staleness seen at the end of any round, s
	faultLog     []string
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
	r := &run{spec: s, opt: opt, faults: make([]faultState, len(s.Faults))}
	for i, f := range s.Faults {
		r.faults[i].spec = f
	}
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
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) {
			return core.New(core.DefaultConfig())
		},
		WALSyncDelay: func() time.Duration { return time.Duration(r.fsyncDelay.Load()) },
		OnRound:      r.onRound,
	}
	if len(s.Objectives) > 0 || len(s.SLOs.Windows) > 0 {
		// No interval floor, deliberately: every round is scraped inline
		// on its round loop, in order, so windowed assertions see a
		// round-exact history — a wall-clock floor would coalesce rounds
		// by machine speed, and under CPU pressure could collapse a whole
		// run into one scrape, leaving every asserted window empty. A
		// scrape stretching a round changes no decision
		// (TestRecorderEquivalence): submission follows the round clock,
		// not the wall.
		cfg.Record = &tsdb.Config{SLOs: s.Objectives, Logf: opt.Logf}
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
		// Small real-time windows (see liveTTL).
		live, err := feed.NewLive(feed.LiveConfig{
			BaseURL: "http://scenario.chaos", Regions: keys,
			TTL: liveTTL, MinInterval: time.Millisecond,
			ForecastAfter: 15 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			Timeout: time.Second,
			Client:  &http.Client{Transport: r.chaos.Transport()},
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		prov = live // NewLive has fetched every region once: round one schedules over real readings
	}
	r.env, err = region.NewEnvironmentWithProvider(regions, energy.Table, Epoch, s.Hours, prov)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// execute runs the trace under the fault schedule and evaluates SLOs.
func (r *run) execute() (*Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opt.Timeout)
	defer cancel()
	defer r.srv.Stop()

	// Upfront: the whole trace before Start (the replay discipline —
	// Start seals the backlog durably). Paced: split the trace by home
	// shard and prefill each shard's first rounds; the round hook feeds
	// the rest.
	parts := r.srv.Partitions()
	r.feeds = make([][]*trace.Job, len(parts))
	for _, j := range r.jobs {
		if r.spec.Submit == SubmitUpfront {
			r.submit(j)
			continue
		}
		i := slices.IndexFunc(parts, func(p []region.ID) bool { return slices.Contains(p, j.Home) })
		r.feeds[i] = append(r.feeds[i], j)
	}
	for i := range r.feeds {
		r.feedLocked(i) // no round hook runs before Start
	}
	r.srv.Start()
	if err := r.settle(ctx); err != nil {
		return nil, err
	}
	r.srv.Stop()
	if r.spec.SLOs.RequireFreshAtEnd {
		r.recovered = r.awaitFresh(ctx)
	}
	return r.evaluate()
}

// settle drains the service until the whole trace is submitted and
// placed and every killed shard is back. Drain waits for each shard's last
// round hook, so one Drain covers the paced feed — except for a shard
// rebuilt with nothing queued, which parks before any hook feeds it: the
// run feeds every shard itself after each Drain, as the hook would.
func (r *run) settle(ctx context.Context) error {
	for {
		if err := r.srv.Drain(ctx); err != nil {
			return fmt.Errorf("scenario %s: drain: %w", r.spec.Name, err)
		}
		r.mu.Lock()
		fed := false
		for i, jobs := range r.feeds {
			r.feedLocked(i)
			fed = fed || len(r.feeds[i]) < len(jobs)
		}
		wasSettled := r.settled
		r.settled = !fed
		r.mu.Unlock()
		if fed {
			continue
		}
		if wasSettled {
			return nil
		}
		// No fault fires once settled, so this Wait races no Add; the
		// next Drain then waits out the restarts the kills began.
		r.kills.Wait()
	}
}

// submitRound maps a job to the round (1-based) that first schedules it.
func (r *run) submitRound(j *trace.Job) uint64 {
	rd := r.spec.Round.Std()
	off := j.Submit.Sub(Epoch)
	return uint64((off+rd-1)/rd) + 1
}

// submit routes one job through the service, keeping submitter-side
// accept/reject accounting. Called before Start or with mu held.
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

// onRound is the service's end-of-round hook (server.Config.OnRound),
// run on the shard's round-loop goroutine before its next round: it
// advances the fault schedule on the run's round clock, samples feed
// health, and feeds the shard its next paced jobs.
func (r *run) onRound(shard int, rounds uint64) {
	var events []string
	r.mu.Lock()
	r.rounds = max(r.rounds, rounds)
	for i := range r.faults {
		if ev := r.step(&r.faults[i]); ev != "" {
			events = append(events, ev)
		}
	}
	if h := feed.HealthOf(r.env.Provider()); h.StalenessSeconds > r.maxStaleness {
		r.maxStaleness = h.StalenessSeconds
	}
	r.feedLocked(shard)
	r.mu.Unlock()
	for _, ev := range events {
		r.opt.Logf("scenario %s: %s", r.spec.Name, ev)
	}
	if r.spec.LiveFeed {
		time.Sleep(liveTTL) // see liveTTL
	}
}

// feedLocked submits shard i's jobs due within two rounds of its
// completed-round count — and, when the shard has nothing queued and
// would park instead of stepping another round, through its next arrival
// as well. It reads only the shard's own state, so which submissions find
// the shard's queue full does not depend on timing. Called with mu held.
func (r *run) feedLocked(i int) {
	jobs := r.feeds[i]
	if len(jobs) == 0 {
		return
	}
	st := r.srv.ShardStatus(i)
	ahead := st.Rounds + 2
	if st.Pending+st.Future == 0 {
		ahead = max(ahead, r.submitRound(jobs[0]))
	}
	for len(jobs) > 0 && r.submitRound(jobs[0]) <= ahead {
		r.submit(jobs[0])
		jobs = jobs[1:]
	}
	r.feeds[i] = jobs
}

// faultState tracks one schedule entry through its lifecycle.
type faultState struct {
	spec    FaultSpec
	applied bool
	cleared bool
	prevCap int // queue_squeeze restore value
}

// step fires a fault once the round clock reaches its onset, and clears a
// windowed one once the clock reaches the window's end, describing what
// it did ("" for nothing). Called with mu held.
func (r *run) step(f *faultState) string {
	switch {
	case !f.applied && !r.settled && r.rounds >= f.spec.AtRound:
		r.apply(f)
		f.applied = true
		r.faultLog = append(r.faultLog, f.spec.String())
		return fmt.Sprintf("fault %s fired at round %d", f.spec, r.rounds)
	case f.applied && !f.cleared && f.spec.Rounds > 0 && r.rounds >= f.spec.AtRound+f.spec.Rounds:
		r.clear(f)
		f.cleared = true
		return fmt.Sprintf("fault %s cleared at round %d", f.spec, r.rounds)
	}
	return ""
}

// apply fires one fault.
func (r *run) apply(f *faultState) {
	switch f.spec.Kind {
	case FaultFeedOutage:
		r.chaos.SetFault(feed.FaultOutage, 0)
	case FaultFeedThrottle:
		r.chaos.SetFault(feed.FaultThrottle, f.spec.RetryAfter.Std())
	case FaultKillShard:
		// KillShard waits for the victim's round loop, which may be the
		// one running this hook.
		r.kills.Add(1)
		go func() {
			defer r.kills.Done()
			_ = r.srv.KillShard(f.spec.Shard)
		}()
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
