// Package waterwise is the public API of the WaterWise reproduction: a
// carbon- and water-footprint co-optimizing job scheduler for
// geographically distributed data centers, together with the trace-driven
// simulation substrate it is evaluated on (PPoPP 2025, arXiv:2501.17944).
//
// The typical flow is:
//
//	env, _ := waterwise.NewEnvironment(waterwise.EnvironmentConfig{})
//	jobs, _ := env.GenerateBorgTrace(waterwise.TraceConfig{Days: 1, JobsPerDay: 5000})
//	sched, _ := waterwise.NewScheduler(waterwise.SchedulerConfig{})
//	base, _ := env.Run(waterwise.NewBaseline(), jobs, 0.5)
//	run, _ := env.Run(sched, jobs, 0.5)
//	savings, _ := waterwise.CompareSavings(base, run)
//	fmt.Printf("carbon %.1f%%, water %.1f%%\n", savings.CarbonPct, savings.WaterPct)
//
// Custom scheduling policies implement the Scheduler interface and plug
// into the same simulator (see examples/customsched).
package waterwise

import (
	"fmt"
	"os"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/footprint"
	"waterwise/internal/metrics"
	"waterwise/internal/region"
	"waterwise/internal/sched"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/tsdb"
)

// Re-exported core types. The aliases make the full simulator vocabulary
// available to API users without reaching into internal packages.
type (
	// Job is one batch job of a trace.
	Job = trace.Job
	// RegionID identifies a data center region ("zurich", "oregon", ...).
	RegionID = region.ID
	// Region is a region's static description (grid, climate, WSF, PUE,
	// servers).
	Region = region.Region
	// Snapshot is the instantaneous sustainability state of one region.
	Snapshot = region.Snapshot
	// Scheduler is the pluggable scheduling policy interface.
	Scheduler = cluster.Scheduler
	// SchedulingContext is what a Scheduler sees each round.
	SchedulingContext = cluster.Context
	// Decision places one job in one region.
	Decision = cluster.Decision
	// PendingJob is a job awaiting placement.
	PendingJob = cluster.PendingJob
	// Result is a full simulation outcome with per-job accounting.
	Result = cluster.Result
	// JobOutcome is the measured outcome of one job.
	JobOutcome = cluster.JobOutcome
	// Footprint is a job's carbon/water cost breakdown (Eq. 1-5).
	Footprint = footprint.Footprint
	// Savings compares a run against the baseline.
	Savings = metrics.Savings
)

// The five paper regions.
const (
	Zurich = region.Zurich
	Madrid = region.Madrid
	Oregon = region.Oregon
	Milan  = region.Milan
	Mumbai = region.Mumbai
)

// FeedSource selects where an environment's grid-mix and weather signals
// come from (EnvironmentConfig.Source).
type FeedSource string

// The three environment feed sources.
const (
	// FeedSynthetic generates the paper's deterministic synthetic series
	// from the seed — the default, and bit-identical to what every
	// release before the feed abstraction produced.
	FeedSynthetic FeedSource = "synthetic"
	// FeedReplay serves a recorded trace file (EnvironmentConfig.FeedPath;
	// JSON or CSV — see internal/feed's Trace schema). Replays are as
	// deterministic as synthetic runs: the same trace always yields the
	// same decisions.
	FeedReplay FeedSource = "replay"
	// FeedLive polls an electricityMaps-style HTTP API
	// (EnvironmentConfig.FeedURL) with TTL caching and stale/forecast
	// fallback; decisions then track an external world and are not
	// replayable from a seed.
	FeedLive FeedSource = "live"
)

// FeedHealth is the environment feed's freshness and fetch accounting, as
// surfaced in /v1/status and /metrics (see Environment.FeedHealth).
type FeedHealth = feed.Health

// EnvironmentConfig sizes the simulated world.
type EnvironmentConfig struct {
	// Regions selects a subset of the five paper regions; empty means all.
	Regions []RegionID
	// Start is the beginning of the simulated horizon (default: 2023-07-01
	// UTC, the paper's data window; for FeedReplay, the trace's own start;
	// for FeedLive, the current hour).
	Start time.Time
	// HorizonHours is the length of the grid/weather series (default: 96;
	// for FeedReplay, the recorded span).
	HorizonHours int
	// Source selects the environment feed: FeedSynthetic (the default
	// when empty), FeedReplay, or FeedLive.
	Source FeedSource
	// FeedPath is the recorded trace file FeedReplay serves (.json or
	// .csv; written by Environment.RecordFeed / waterwised -record).
	FeedPath string
	// FeedURL is the base URL FeedLive polls; the API token, if the
	// service needs one, is read from the WATERWISE_FEED_TOKEN
	// environment variable.
	FeedURL string
	// UseWRIWaterData switches to the World Resources Institute-style
	// water factor table (the paper's Fig. 6 robustness dataset).
	UseWRIWaterData bool
	// ServersPerRegion overrides every region's server count (0 keeps the
	// paper's 35).
	ServersPerRegion int
	// Seed makes the environment deterministic.
	Seed int64
	// EmbodiedCarbonFactor perturbs the embodied-carbon estimate
	// (0 or 1 = exact); the paper's sensitivity study uses 0.9/1.1.
	EmbodiedCarbonFactor float64
	// WaterIntensityFactor perturbs EWIF and WUE (0 or 1 = exact).
	WaterIntensityFactor float64
}

// Environment is a ready-to-simulate world: regions with generated grid
// mixes and weather, a transfer model, and a footprint model.
type Environment struct {
	env *region.Environment
	net *transfer.Model
	fp  *footprint.Model
}

// NewEnvironment builds the simulated world over the configured feed
// source: deterministic synthetic series (the default), a recorded replay
// trace, or a live HTTP feed.
func NewEnvironment(cfg EnvironmentConfig) (*Environment, error) {
	var regions []*region.Region
	var err error
	if len(cfg.Regions) == 0 {
		regions = region.Defaults()
	} else {
		regions, err = region.DefaultsSubset(cfg.Regions...)
		if err != nil {
			return nil, err
		}
	}
	if cfg.ServersPerRegion > 0 {
		for _, r := range regions {
			r.Servers = cfg.ServersPerRegion
		}
	}
	table := energy.Table
	if cfg.UseWRIWaterData {
		table = energy.WRITable
	}

	var env *region.Environment
	switch cfg.Source {
	case "", FeedSynthetic:
		if cfg.Start.IsZero() {
			cfg.Start = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
		}
		if cfg.HorizonHours == 0 {
			cfg.HorizonHours = 96
		}
		env, err = region.NewEnvironment(regions, table, cfg.Start, cfg.HorizonHours, cfg.Seed)
	case FeedReplay:
		if cfg.FeedPath == "" {
			return nil, fmt.Errorf("waterwise: %s feed needs FeedPath", FeedReplay)
		}
		var tr feed.Trace
		tr, err = feed.ReadTraceFile(cfg.FeedPath)
		if err != nil {
			return nil, err
		}
		// The recorded span sizes the environment unless the caller
		// narrows it explicitly. A caller-chosen Start keeps the horizon
		// anchored to the recorded end, so the default window never
		// extends past the data into clamped flat-line territory.
		start, hours := tr.Span()
		end := start.Add(time.Duration(hours) * time.Hour)
		if !cfg.Start.IsZero() {
			start = cfg.Start
		}
		if cfg.HorizonHours > 0 {
			hours = cfg.HorizonHours
		} else {
			span := end.Sub(start)
			hours = int(span / time.Hour)
			if span%time.Hour != 0 {
				hours++
			}
			if hours <= 0 {
				return nil, fmt.Errorf("waterwise: Start %v is at or past the replay trace's end %v", start, end)
			}
		}
		var prov *feed.Replay
		prov, err = feed.NewReplay(tr)
		if err != nil {
			return nil, err
		}
		env, err = region.NewEnvironmentWithProvider(regions, table, start, hours, prov)
	case FeedLive:
		if cfg.FeedURL == "" {
			return nil, fmt.Errorf("waterwise: %s feed needs FeedURL", FeedLive)
		}
		if cfg.Start.IsZero() {
			cfg.Start = time.Now().UTC().Truncate(time.Hour)
		}
		if cfg.HorizonHours == 0 {
			cfg.HorizonHours = 96
		}
		keys := make([]string, len(regions))
		for i, r := range regions {
			keys[i] = string(r.ID)
		}
		var prov *feed.Live
		prov, err = feed.NewLive(feed.LiveConfig{
			BaseURL: cfg.FeedURL,
			Regions: keys,
			Token:   os.Getenv("WATERWISE_FEED_TOKEN"),
		})
		if err != nil {
			return nil, err
		}
		env, err = region.NewEnvironmentWithProvider(regions, table, cfg.Start, cfg.HorizonHours, prov)
	default:
		return nil, fmt.Errorf("waterwise: unknown feed source %q", cfg.Source)
	}
	if err != nil {
		return nil, err
	}
	return &Environment{
		env: env,
		net: transfer.New(),
		fp: footprint.NewModel(footprint.Perturbation{
			EmbodiedCarbonFactor: cfg.EmbodiedCarbonFactor,
			WaterIntensityFactor: cfg.WaterIntensityFactor,
		}),
	}, nil
}

// RecordFeed samples the environment's feed hourly over its whole horizon
// and writes the replay trace to path (.json or .csv). Replaying a
// synthetic environment's recording (EnvironmentConfig{Source: FeedReplay,
// FeedPath: path}, same regions and horizon) reproduces the original's
// decisions exactly; this is what waterwised -record runs.
func (e *Environment) RecordFeed(path string) error {
	keys := make([]string, 0, len(e.env.Regions))
	for _, r := range e.env.Regions {
		keys = append(keys, string(r.ID))
	}
	tr, err := feed.Record(e.env.Provider(), keys, e.env.Start, e.env.Hours)
	if err != nil {
		return err
	}
	return feed.WriteTraceFile(path, tr)
}

// FeedHealth reports the environment feed's freshness and fetch
// accounting — staleness seconds, fetch errors, cache hits, and
// forecast-served counts for a live feed; a trivially fresh record for
// the deterministic sources.
func (e *Environment) FeedHealth() FeedHealth {
	return feed.HealthOf(e.env.Provider())
}

// Regions returns the environment's region IDs in order.
func (e *Environment) Regions() []RegionID { return e.env.IDs() }

// HorizonHours reports the length of the environment's covered horizon —
// the generated, recorded, or operational window length in hours.
func (e *Environment) HorizonHours() int { return e.env.Hours }

// Snapshot reads the sustainability state of a region at an instant.
func (e *Environment) Snapshot(id RegionID, at time.Time) (Snapshot, bool) {
	return e.env.Snapshot(id, at)
}

// TraceConfig parameterizes trace generation against an environment.
type TraceConfig struct {
	// Days of arrivals (default 1).
	Days int
	// JobsPerDay is the mean arrival rate (default 5000).
	JobsPerDay float64
	// DurationScale scales job runtimes (default 1).
	DurationScale float64
	// Seed fixes the generator.
	Seed int64
}

func (c TraceConfig) toInternal(e *Environment) trace.Config {
	days := c.Days
	if days <= 0 {
		days = 1
	}
	rate := c.JobsPerDay
	if rate <= 0 {
		rate = 5000
	}
	return trace.Config{
		Start:         e.env.Start,
		Duration:      time.Duration(days) * 24 * time.Hour,
		JobsPerDay:    rate,
		Regions:       e.env.IDs(),
		DurationScale: c.DurationScale,
		Seed:          c.Seed,
	}
}

// GenerateBorgTrace synthesizes a Google-Borg-style trace (diurnal+weekly
// modulated Poisson arrivals).
func (e *Environment) GenerateBorgTrace(cfg TraceConfig) ([]*Job, error) {
	return trace.GenerateBorgLike(cfg.toInternal(e))
}

// GenerateAlibabaTrace synthesizes an Alibaba-style trace (bursty,
// Markov-modulated arrivals). Pass the already-multiplied rate; the paper
// uses 8.5x the Borg rate.
func (e *Environment) GenerateAlibabaTrace(cfg TraceConfig) ([]*Job, error) {
	return trace.GenerateAlibabaLike(cfg.toInternal(e))
}

// Run simulates the scheduler over the jobs at the given delay tolerance
// (e.g. 0.5 for the paper's 50%).
func (e *Environment) Run(s Scheduler, jobs []*Job, tolerance float64) (*Result, error) {
	return cluster.Run(cluster.Config{
		Env: e.env, Net: e.net, FP: e.fp, Tolerance: tolerance,
	}, s, jobs)
}

// SchedulerConfig configures the WaterWise scheduler. Zero values take the
// paper's defaults: λ_CO2 = λ_H2O = 0.5, λ_ref = 0.1, history window 10.
type SchedulerConfig struct {
	// LambdaCarbon weights carbon in the objective; LambdaCarbon +
	// LambdaWater must be 1 (both zero = use defaults).
	LambdaCarbon float64
	// LambdaWater weights water in the objective.
	LambdaWater float64
	// LambdaRef weights the history learner.
	LambdaRef float64
	// HistoryWindow is the history learner window in rounds.
	HistoryWindow int
	// PenaltySigma prices soft-constraint violations (Eq. 12).
	PenaltySigma float64
	// PerfWeight optionally adds performance (normalized service-time
	// impact) as a third objective — the paper's §7 extension. 0 disables.
	PerfWeight float64
	// CostWeight optionally adds electricity cost as an objective — the
	// paper's §7 extension. 0 disables.
	CostWeight float64
	// MaxBatch caps the number of jobs placed in a single scheduling round;
	// overflow jobs wait for the next round, most urgent first (default
	// 64). The round is solved as a transportation problem, whose cost grows
	// about linearly with the batch, so large deployments can raise this to
	// batch whole bursts into one optimal assignment.
	MaxBatch int
	// SolverWorkers is kept for source compatibility.
	//
	// Deprecated: ignored; the round solver is serial.
	SolverWorkers int
	// CrossRoundWarmStart is kept for source compatibility.
	//
	// Deprecated: ignored; the round is solved as a transportation problem,
	// which keeps no simplex basis to carry across rounds.
	CrossRoundWarmStart bool
}

// NewScheduler builds the WaterWise MILP scheduler.
func NewScheduler(cfg SchedulerConfig) (Scheduler, error) {
	c := core.DefaultConfig()
	if cfg.LambdaCarbon != 0 || cfg.LambdaWater != 0 {
		c.LambdaCarbon = cfg.LambdaCarbon
		c.LambdaWater = cfg.LambdaWater
	}
	if cfg.LambdaRef != 0 {
		c.LambdaRef = cfg.LambdaRef
	}
	if cfg.HistoryWindow != 0 {
		c.HistoryWindow = cfg.HistoryWindow
	}
	if cfg.PenaltySigma != 0 {
		c.PenaltySigma = cfg.PenaltySigma
	}
	if cfg.MaxBatch != 0 {
		c.MaxBatch = cfg.MaxBatch
	}
	c.PerfWeight = cfg.PerfWeight
	c.CostWeight = cfg.CostWeight
	return core.New(c)
}

// NewBaseline returns the carbon/water-unaware home-region scheduler.
func NewBaseline() Scheduler { return sched.NewBaseline() }

// NewRoundRobin returns the round-robin load balancer.
func NewRoundRobin() Scheduler { return sched.NewRoundRobin() }

// NewLeastLoad returns the least-load balancer.
func NewLeastLoad() Scheduler { return sched.NewLeastLoad() }

// NewCarbonGreedyOpt returns the infeasible carbon-minimizing oracle.
func NewCarbonGreedyOpt() Scheduler { return sched.NewCarbonGreedyOpt() }

// NewWaterGreedyOpt returns the infeasible water-minimizing oracle.
func NewWaterGreedyOpt() Scheduler { return sched.NewWaterGreedyOpt() }

// NewEcovisor returns the Ecovisor (ASPLOS'23) comparator.
func NewEcovisor() Scheduler { return sched.NewEcovisor() }

// NewTemporalShift returns a feasible carbon-aware-only comparator in the
// style of "Let's wait awhile" (Middleware'21): home-region only, deferring
// starts to below-average carbon-intensity moments within the delay
// tolerance.
func NewTemporalShift() Scheduler { return sched.NewTemporalShift() }

// CompareSavings computes the carbon/water savings of run relative to base
// (both must simulate the same trace).
func CompareSavings(base, run *Result) (Savings, error) {
	return metrics.Compare(base, run)
}

// Distribution returns the percentage of jobs each region received.
func Distribution(res *Result, ids []RegionID) map[RegionID]float64 {
	return metrics.Distribution(res, ids)
}

// Server is the online scheduling service: streaming job ingest over an
// HTTP/JSON API (and the binary stream protocol via ServeStream),
// micro-batched scheduling rounds on a configurable cadence with bounded
// queues and backpressure, and a decision log — the long-running form of
// the same scheduler stack Environment.Run drives offline. It runs one
// region shard by default, or N behind one router that merges their
// decision logs into one globally seq-numbered stream; within each shard's
// partition it is decision-for-decision identical to the offline replay.
// See internal/server for the API surface (Submit, Handler, ServeStream,
// Start, Stop, Drain, Decisions, Status, Result).
type Server = server.Server

// Server-facing types of the online service.
type (
	// JobSpec is one job submission to the online service.
	JobSpec = server.JobSpec
	// ServerDecision is one entry of the decision log: a placement with
	// its global sequence number and its shard coordinates.
	ServerDecision = server.MergedDecision
	// ServerStatus is a point-in-time service snapshot: counters summed
	// over the shards plus every shard's own snapshot.
	ServerStatus = server.Status
	// WALStatus is the durability block of ServerStatus (log sizing,
	// fsync stalls, recovery cost); nil when DataDir is unset.
	WALStatus = server.WALStatus
	// ObsSummary is the observability digest in ServerStatus: histogram-
	// backed decision latency and round time quantiles.
	ObsSummary = server.ObsSummary
	// RecordConfig configures the metrics flight recorder: round-clock
	// self-scrapes of the exposition into a bounded in-process TSDB with
	// windowed queries (/v1/query) and burn-rate SLO alerts (/v1/alerts).
	RecordConfig = tsdb.Config
	// SLOObjective is one declarative service-level objective evaluated
	// by the recorder's burn-rate engine (RecordConfig.SLOs).
	SLOObjective = tsdb.Objective
	// SLOBurnRule is one (long, short) burn-rate window pair of an
	// SLOObjective.
	SLOBurnRule = tsdb.BurnRule
	// SLOAlert is the live state of one (objective, rule) alert.
	SLOAlert = tsdb.Alert
	// StreamListener accepts persistent wire-protocol connections
	// (Server.ServeStream): batched submits in, batched decision pushes
	// out, cursor-resume handshake.
	StreamListener = server.StreamListener
	// StreamOptions is a StreamListener's options, currently none: the
	// listener pushes decisions as rounds publish them, with no cadence.
	StreamOptions = server.StreamOptions
)

// ErrQueueFull is the online service's backpressure rejection.
var ErrQueueFull = server.ErrQueueFull

// ServerConfig configures the online scheduling service. Zero values take
// the service defaults: one shard, a 1-minute round cadence, accelerated
// time, 65536 queue and decision-log capacities. The observability layer
// (latency histograms, round traces, sampled job lifecycles) is always on
// and never affects decisions.
type ServerConfig struct {
	// Tolerance is the delay tolerance TOL as a fraction (e.g. 0.5).
	Tolerance float64
	// Round is the micro-batching cadence in simulated time, shared by
	// every shard.
	Round time.Duration
	// TimeScale maps wall time to simulated time (simulated seconds per
	// wall second): 1 runs in real time, 0 is accelerated — rounds run back
	// to back, the replay/benchmark mode.
	TimeScale float64
	// QueueCap bounds each shard's ingest queue; submissions beyond it are
	// rejected with ErrQueueFull (HTTP 429).
	QueueCap int
	// DecisionLogCap bounds each shard's decision log ring and the merged
	// one.
	DecisionLogCap int
	// DataDir enables durable state: accepted jobs and emitted decisions
	// are written ahead to a segmented, checksummed log per shard under
	// DataDir/shard-<i>, snapshots cover settled state, and NewServer
	// recovers the directory — latest snapshot plus log-tail replay —
	// before serving, resuming decision-identical to the uninterrupted run.
	// Empty keeps the service purely in-memory.
	DataDir string
	// SnapshotEvery is the snapshot cadence in scheduling rounds
	// (0 = default 256). Only meaningful with DataDir.
	SnapshotEvery int
	// Record, when set, turns on the metrics flight recorder (see
	// RecordConfig); nil, the default, records nothing. Measurement only:
	// never affects decisions.
	Record *RecordConfig
	// Shards is the scheduler shard count (default 1, at most the region
	// count); each shard schedules a disjoint partition of the regions.
	Shards int
	// ShardMap pins regions to shards (region → shard index); unpinned
	// regions are dealt to the emptiest shard in environment order.
	ShardMap map[RegionID]int
	// Scheduler configures every shard's WaterWise scheduler (each shard
	// gets its own instance).
	Scheduler SchedulerConfig
}

// NewServer builds the online scheduling service over an environment. Call
// Start to begin rounds, Handler for the HTTP API.
func NewServer(env *Environment, cfg ServerConfig) (*Server, error) {
	if env == nil {
		return nil, fmt.Errorf("waterwise: nil environment")
	}
	return server.New(server.Config{
		Env: env.env, Net: env.net, FP: env.fp,
		NewScheduler: func(int, []RegionID) (Scheduler, error) {
			return NewScheduler(cfg.Scheduler)
		},
		Shards: cfg.Shards, ShardMap: cfg.ShardMap,
		Tolerance: cfg.Tolerance, Round: cfg.Round, TimeScale: cfg.TimeScale,
		QueueCap: cfg.QueueCap, DecisionLogCap: cfg.DecisionLogCap,
		DataDir: cfg.DataDir, SnapshotEvery: cfg.SnapshotEvery,
		Record: cfg.Record,
	})
}

// Validate sanity-checks an environment+trace pairing before a long run.
func Validate(e *Environment, jobs []*Job) error {
	if e == nil {
		return fmt.Errorf("waterwise: nil environment")
	}
	known := map[RegionID]bool{}
	for _, id := range e.env.IDs() {
		known[id] = true
	}
	for _, j := range jobs {
		if !known[j.Home] {
			return fmt.Errorf("waterwise: job %d home region %q not in environment", j.ID, j.Home)
		}
		if j.Submit.Before(e.env.Start) || !j.Submit.Before(e.env.End()) {
			return fmt.Errorf("waterwise: job %d submitted at %v outside environment horizon [%v, %v)",
				j.ID, j.Submit, e.env.Start, e.env.End())
		}
	}
	return nil
}
