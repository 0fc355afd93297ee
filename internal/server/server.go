// Package server implements the online scheduling service: the long-running
// form of the WaterWise Optimization Decision Controller. Where cluster.Run
// replays a static trace offline, the server ingests a continuous stream of
// job arrivals over HTTP/JSON, micro-batches them into scheduling rounds on
// a configurable cadence, and feeds them to the same incremental simulator
// (cluster.Sim) and scheduler stack the offline path uses — so an
// accelerated-time replay of a trace through the service reproduces
// cluster.Run decision for decision.
//
// The service clock runs in simulated time. In paced mode (TimeScale > 0)
// the simulated clock advances TimeScale simulated seconds per wall second
// and rounds fire on a wall timer; in accelerated mode (TimeScale == 0)
// rounds fire back to back as fast as the solver allows, fast-forwarding
// over idle gaps — the mode for replay, benchmarking, and tests.
//
// Ingest is bounded: QueueCap caps the number of jobs queued ahead of
// placement, and Submit rejects (ErrQueueFull) once it is reached —
// backpressure the HTTP layer translates to 429 Too Many Requests.
package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/feed"
	"waterwise/internal/footprint"
	"waterwise/internal/milp"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/tsdb"
	"waterwise/internal/units"
	"waterwise/internal/wal"
	"waterwise/internal/workload"
)

// Config parameterizes the scheduling service.
type Config struct {
	// Env is the environment (regions, grids, weather) decisions read.
	Env *region.Environment
	// Regions restricts the server to a subset of Env's regions — the
	// shard form the fleet gateway (internal/fleet) runs N of: the server
	// schedules only over the subset (via an Environment.Partition view
	// sharing Env's series) and rejects submissions homed elsewhere with
	// ErrUnknownRegion. Empty means all of Env's regions.
	Regions []region.ID
	// Net is the inter-region transfer model and FP the footprint model;
	// nil takes cluster.Config's defaults (transfer.New(), unperturbed).
	Net *transfer.Model
	FP  *footprint.Model
	// Scheduler decides placements each round.
	Scheduler cluster.Scheduler
	// Tolerance is the delay tolerance TOL as a fraction (e.g. 0.5).
	Tolerance float64
	// Round is the micro-batching cadence in simulated time (default 1m).
	Round time.Duration
	// TimeScale maps wall time to simulated time: simulated seconds per
	// wall second. 1 runs in real time, 60 packs a simulated hour into a
	// wall minute; 0 (the default) is accelerated mode — rounds run back to
	// back with no pacing, fast-forwarding over idle stretches.
	TimeScale float64
	// QueueCap bounds the jobs queued ahead of placement (pending rounds +
	// not-yet-due arrivals). Submit rejects once reached. Default 65536.
	QueueCap int
	// DecisionLogCap bounds the in-memory decision log ring (default 65536).
	// Older decisions are dropped from the log (never from the accounting).
	DecisionLogCap int
	// DataDir, when non-empty, makes the server durable: accepted jobs
	// and scheduling rounds are written ahead to a segmented WAL under
	// this directory, settled state is snapshotted periodically, and New
	// recovers a prior process's state from the directory before serving
	// (see durable.go). Empty keeps the server purely in-memory.
	DataDir string
	// SnapshotEvery is the snapshot cadence in scheduling rounds
	// (default 256). Ignored without DataDir.
	SnapshotEvery int
	// SyncInterval bounds how long an acknowledged job may sit in the
	// WAL's user-space buffer before a group commit when no round fires
	// (default 100ms). Rounds always commit their batch on completion.
	SyncInterval time.Duration
	// WALSyncDelay is passed to the write-ahead log as its fsync latency
	// hook (wal.Options.SyncDelay): the scenario harness injects slow-disk
	// stalls through it. Nil — the default — is exactly free. Ignored
	// without DataDir.
	WALSyncDelay func() time.Duration
	// Record configures the metrics flight recorder (see RecordConfig):
	// round-clock self-scrapes of /metrics into an in-process TSDB with
	// windowed queries and burn-rate SLO alerts. Measurement only.
	Record RecordConfig
	// OnRound, when non-nil, is called with the completed-rounds count
	// after each scheduling round, outside the server's lock — the hook
	// the fleet uses to drive its own recorder on the shards' round
	// clock. Must not block for long: it runs on the round loop's
	// goroutine between rounds.
	OnRound func(rounds uint64)
}

func (c Config) withDefaults() (Config, error) {
	if c.Env == nil {
		return c, errors.New("server: nil environment")
	}
	if len(c.Regions) > 0 {
		view, err := c.Env.Partition(c.Regions...)
		if err != nil {
			return c, fmt.Errorf("server: %w", err)
		}
		c.Env = view
	}
	if c.Scheduler == nil {
		return c, errors.New("server: nil scheduler")
	}
	if c.Round <= 0 {
		c.Round = time.Minute
	}
	if c.TimeScale < 0 {
		return c, fmt.Errorf("server: negative time scale %g", c.TimeScale)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 65536
	}
	if c.DecisionLogCap <= 0 {
		c.DecisionLogCap = 65536
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	return c, nil
}

// dedupeCap bounds the decided-job dedupe index that makes client
// re-submits idempotent after a restart (entries evicted FIFO).
const dedupeCap = 262144

// secondsToDuration converts float seconds to a Duration, rounding to the
// nearest nanosecond so millisecond-quantized wire values map exactly.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// Typed ingest rejections. Submit wraps each with the offending detail
// (region name, job id, instant), so callers — the HTTP layer here and the
// fleet gateway routing across shards — branch with errors.Is and map each
// cause to a distinct HTTP status instead of matching message strings.
var (
	// ErrQueueFull is returned by Submit when the ingest queue is at
	// QueueCap — the service's backpressure signal.
	ErrQueueFull = errors.New("server: ingest queue full")
	// ErrStopped is returned by Submit after Stop.
	ErrStopped = errors.New("server: stopped")
	// ErrUnknownRegion rejects a home region this server does not serve —
	// absent from the environment, or outside this shard's partition.
	ErrUnknownRegion = errors.New("server: unknown home region")
	// ErrUnknownBenchmark rejects a benchmark with no workload profile.
	ErrUnknownBenchmark = errors.New("server: unknown benchmark")
	// ErrDuplicateID rejects a client-assigned id that is already queued.
	ErrDuplicateID = errors.New("server: duplicate job id")
	// ErrOutsideHorizon rejects a submit instant outside the environment's
	// generated series.
	ErrOutsideHorizon = errors.New("server: submit outside environment horizon")
)

// JobSpec is one job submission. Zero estimate fields default to the
// benchmark profile's means (what the controller would know from history);
// zero actuals default to the estimates.
type JobSpec struct {
	// ID is the client-assigned job id; nil auto-assigns.
	ID *int `json:"id,omitempty"`
	// Benchmark names the workload profile (Table 1).
	Benchmark string `json:"benchmark"`
	// Home is the submitting region.
	Home region.ID `json:"home"`
	// Submit is the arrival instant in simulated time; zero means "now"
	// (live mode). Replay clients pass trace timestamps.
	Submit time.Time `json:"submit,omitempty"`
	// DurationSec and EnergyKWh are the ground-truth actuals.
	DurationSec float64 `json:"duration_s,omitempty"`
	EnergyKWh   float64 `json:"energy_kwh,omitempty"`
	// EstDurationSec and EstEnergyKWh are the controller's estimates.
	EstDurationSec float64 `json:"est_duration_s,omitempty"`
	EstEnergyKWh   float64 `json:"est_energy_kwh,omitempty"`
}

// Decision is one placement, as exposed by the decision log.
type Decision struct {
	// Seq is the log sequence number (monotonic from 1).
	Seq uint64 `json:"seq"`
	// JobID identifies the placed job.
	JobID int `json:"job_id"`
	// Region is the placement.
	Region region.ID `json:"region"`
	// Round is the simulated time of the deciding round.
	Round time.Time `json:"round"`
	// Start and Finish bound the execution in simulated time.
	Start  time.Time `json:"start"`
	Finish time.Time `json:"finish"`
	// CarbonG and WaterL are the job's accounted footprint (compute+comm).
	CarbonG float64 `json:"carbon_g"`
	WaterL  float64 `json:"water_l"`
	// DecidedWall is the wall-clock instant the round committed, for
	// client-side decision-latency measurement.
	DecidedWall time.Time `json:"decided_wall"`
}

// LogSeq returns Seq; fleet.Decision embeds Decision, so one NextCursor
// serves a server's pages and the gateway's merged ones.
func (d Decision) LogSeq() uint64 { return d.Seq }

// Status is a point-in-time service snapshot.
type Status struct {
	Scheduler string    `json:"scheduler"`
	SimNow    time.Time `json:"sim_now"`
	Round     string    `json:"round"`
	TimeScale float64   `json:"time_scale"`
	Pending   int       `json:"pending"`
	Future    int       `json:"future"`
	QueueCap  int       `json:"queue_cap"`
	Accepted  uint64    `json:"accepted"`
	Rejected  uint64    `json:"rejected"`
	Rounds    uint64    `json:"rounds"`
	Decisions uint64    `json:"decisions"`
	// LastSeq is the newest decision-log sequence number (the cursor a
	// fresh poller should resume behind).
	LastSeq     uint64 `json:"last_seq"`
	Unscheduled int    `json:"unscheduled"`
	// Free is the per-region free server count at SimNow.
	Free map[region.ID]int `json:"free"`
	// Obs digests the observability histograms — decision latency, round
	// and solve time quantiles.
	Obs *ObsSummary `json:"obs,omitempty"`
	// Solver carries branch-and-bound instrumentation when the scheduler
	// exposes it (the WaterWise controller does).
	Solver *milp.Stats `json:"solver,omitempty"`
	// Feed reports the environment feed behind this server's decisions:
	// which provider, how stale its readings are, and its fetch/cache
	// accounting (trivially fresh for the deterministic providers).
	Feed *feed.Health `json:"feed,omitempty"`
	// WAL reports the durability layer — log size, fsync accounting, and
	// what the last restart recovered — when DataDir is configured.
	WAL *WALStatus `json:"wal,omitempty"`
	// Err reports a scheduler failure that halted the round loop.
	Err string `json:"err,omitempty"`
}

// solverStatser is implemented by schedulers that expose branch-and-bound
// instrumentation (core.Scheduler).
type solverStatser interface{ SolverStats() milp.Stats }

// futureHeap orders not-yet-due jobs by (Submit, ID) — the same order the
// offline replay ingests a sorted trace in.
type futureHeap []*trace.Job

func (h futureHeap) Len() int { return len(h) }
func (h futureHeap) Less(i, j int) bool {
	if h[i].Submit.Equal(h[j].Submit) {
		return h[i].ID < h[j].ID
	}
	return h[i].Submit.Before(h[j].Submit)
}
func (h futureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *futureHeap) Push(x interface{}) { *h = append(*h, x.(*trace.Job)) }
func (h *futureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// liveJob is an accepted, undecided job's dedupe entry: its spec digest
// and the wall instant Submit accepted it (zero for a recovered job),
// which the decision-latency histogram reads.
type liveJob struct {
	digest   uint64
	accepted time.Time
}

// Server is the online scheduling service. Construct with New, attach the
// HTTP API via Handler, start the round loop with Start, and stop with Stop.
type Server struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	sim  *cluster.Sim
	// nextK is the index of the next scheduling round: round k fires at
	// simulated time Env.Start + k*Round.
	nextK int64
	// simNow is the simulated time of the most recent round (Env.Start
	// before any round has run).
	simNow time.Time
	// future holds accepted jobs whose Submit lies beyond simNow.
	future futureHeap
	// live tracks jobs accepted but not yet decided, keyed by id (duplicate
	// rejection + idempotent retry); autoID assigns ids to spec-less
	// submissions.
	live   map[int]liveJob
	autoID int
	// decidedIdx remembers decided jobs' spec digests (bounded, FIFO via
	// decidedFIFO) so a client retrying an already-placed submission gets
	// its original id back instead of ErrDuplicateID.
	decidedIdx  map[int]uint64
	decidedFIFO []int

	decisions Ring[Decision] // capacity DecisionLogCap
	decSeq    uint64
	roundDecs []Decision // the round in flight's decisions; reused

	accepted, rejected, rounds, decided uint64
	deduped                             uint64
	unscheduled                         int
	overheadSum                         time.Duration

	// obs is the observability layer: always on, measurement only.
	obs *serverObs

	// Durability (nil/zero without Config.DataDir): the write-ahead log,
	// the group-commit and snapshot cadence state, and what the restart
	// path recovered.
	wlog          *wal.Log
	walDirty      bool
	lastWalSync   time.Time
	sinceSnap     int
	recoveryDur   time.Duration
	recoveredRecs uint64
	recoveredSnap bool

	// recorder is the metrics flight recorder (nil unless Record.Enable).
	recorder *tsdb.Recorder

	started  bool
	stopped  bool
	stopCh   chan struct{}
	loopDone chan struct{}
	runErr   error

	// wallStart anchors the paced clock: simulated time advances TimeScale
	// seconds per wall second from Env.Start at wallStart.
	wallStart time.Time
}

// New validates cfg and returns a stopped service; call Start to begin
// scheduling rounds.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sim, err := cluster.NewSim(cluster.Config{
		Env: cfg.Env, Net: cfg.Net, FP: cfg.FP,
		Tick: cfg.Round, Tolerance: cfg.Tolerance,
	}, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		sim:        sim,
		simNow:     cfg.Env.Start,
		live:       make(map[int]liveJob),
		decidedIdx: make(map[int]uint64),
		decisions:  NewRing[Decision](cfg.DecisionLogCap),
		obs:        newServerObs(),
		stopCh:     make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	if cfg.Record.Enable {
		if s.recorder, err = cfg.Record.NewRecorder(s.MetricsText); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// simAt maps a wall instant to the paced simulated clock. Accelerated mode
// has no wall mapping; it reports the round clock instead.
func (s *Server) simAt(wall time.Time) time.Time {
	if s.cfg.TimeScale == 0 || s.wallStart.IsZero() {
		return s.simNow
	}
	return s.cfg.Env.Start.Add(time.Duration(float64(wall.Sub(s.wallStart)) * s.cfg.TimeScale))
}

// Submit accepts one job into the ingest queue. The returned id is the
// job's identity in the decision log. Rejections: ErrQueueFull
// (backpressure), ErrStopped, duplicate ids, unknown benchmarks or regions,
// and submit instants outside the environment horizon.
//
// Re-submits are idempotent: a client-assigned id whose spec digest
// matches what this server already accepted (still queued or already
// decided, up to dedupeCap history) is acknowledged again with the
// original id and no new job — the safe-retry contract clients rely on
// after a connection error or a shard restart. The same id with a
// different spec stays ErrDuplicateID.
func (s *Server) Submit(spec JobSpec) (int, error) {
	job, err := s.buildJob(spec)
	if err != nil {
		return 0, err
	}
	digest := specDigest(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		s.rejected++
		return 0, ErrStopped
	}
	if spec.ID != nil {
		if g, dup := s.live[job.ID]; dup {
			if g.digest == digest {
				s.deduped++
				return job.ID, nil
			}
			s.rejected++
			return 0, fmt.Errorf("%w: %d", ErrDuplicateID, job.ID)
		}
		if g, done := s.decidedIdx[job.ID]; done && g == digest {
			s.deduped++
			return job.ID, nil
		}
	}
	if len(s.future)+s.sim.Pending() >= s.cfg.QueueCap {
		s.rejected++
		return 0, ErrQueueFull
	}
	if spec.ID == nil {
		job.ID = s.autoID
	}
	if job.Submit.IsZero() {
		job.Submit = s.simAt(time.Now())
		if job.Submit.Before(s.cfg.Env.Start) {
			job.Submit = s.cfg.Env.Start
		}
	}
	if job.Submit.Before(s.cfg.Env.Start) || !job.Submit.Before(s.cfg.Env.End()) {
		s.rejected++
		return 0, fmt.Errorf("%w: %v not in [%v, %v)",
			ErrOutsideHorizon, job.Submit, s.cfg.Env.Start, s.cfg.Env.End())
	}
	if s.wlog != nil {
		// Write-ahead: the acceptance is logged before it is acknowledged,
		// and group-committed by the next round or the SyncInterval.
		if err := s.walAppendLocked(encodeJobRecord(job, digest)); err != nil {
			s.rejected++
			return 0, err
		}
		if time.Since(s.lastWalSync) >= s.cfg.SyncInterval {
			if err := s.walSyncLocked(); err != nil {
				s.rejected++
				return 0, err
			}
		}
	}
	accepted := time.Now()
	s.obs.jobs.Accepted(job.ID, accepted, job.Submit)
	s.admitLocked(job, digest, accepted)
	s.cond.Broadcast() // wake an idle accelerated loop
	return job.ID, nil
}

// admitLocked commits an accepted job to shard state: the tail of Submit
// (after validation and the write-ahead append) and all of replaying a
// job record, which passes a zero stamp. Called with mu held.
func (s *Server) admitLocked(job *trace.Job, digest uint64, accepted time.Time) {
	if job.ID >= s.autoID {
		s.autoID = job.ID + 1
	}
	s.live[job.ID] = liveJob{digest: digest, accepted: accepted}
	heap.Push(&s.future, job)
	s.accepted++
}

// buildJob converts a spec into a trace job, defaulting estimates to the
// benchmark profile and actuals to the estimates.
func (s *Server) buildJob(spec JobSpec) (*trace.Job, error) {
	prof, err := workload.Lookup(spec.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBenchmark, spec.Benchmark)
	}
	if s.cfg.Env.Region(spec.Home) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRegion, spec.Home)
	}
	estDur := secondsToDuration(spec.EstDurationSec)
	if estDur <= 0 {
		estDur = prof.MeanDuration
	}
	estEnergy := spec.EstEnergyKWh
	if estEnergy <= 0 {
		estEnergy = float64(prof.MeanEnergy())
	}
	dur := secondsToDuration(spec.DurationSec)
	if dur <= 0 {
		dur = estDur
	}
	energy := spec.EnergyKWh
	if energy <= 0 {
		energy = estEnergy
	}
	job := &trace.Job{
		Benchmark: spec.Benchmark, Home: spec.Home,
		Duration: dur, EstDuration: estDur,
		Energy: units.KWh(energy), EstEnergy: units.KWh(estEnergy),
	}
	if !spec.Submit.IsZero() {
		job.Submit = spec.Submit.UTC()
	}
	if spec.ID != nil {
		job.ID = *spec.ID
	}
	return job, nil
}

// Start launches the round loop. Jobs may be submitted before Start —
// replay clients queue the whole trace first so the accelerated clock
// cannot outrun the feed.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return
	}
	s.started = true
	// Seal the pre-Start backlog: replay clients queue the whole trace
	// before starting the clock, and from here the accelerated loop may
	// decide (and serve) any of it within the first SyncInterval.
	_ = s.walSyncIfDirtyLocked()
	s.mu.Unlock()
	go s.run()
}

// halt is the handshake Stop and Crash share: mark the server stopped,
// wake the round loop, wait for it to exit. It reports whether this call
// did the halting; a repeat only waits.
func (s *Server) halt() bool {
	s.mu.Lock()
	first := !s.stopped
	if first {
		s.stopped = true
		close(s.stopCh)
		s.cond.Broadcast()
	}
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.loopDone
	}
	return first
}

// Stop halts the round loop, abandons still-queued jobs, and waits for the
// loop to exit. Idempotent.
func (s *Server) Stop() {
	if !s.halt() {
		return
	}
	s.mu.Lock()
	// Everything still queued — pending rounds and not-yet-due arrivals —
	// is abandoned into the result's Unscheduled list.
	for len(s.future) > 0 {
		j := heap.Pop(&s.future).(*trace.Job)
		s.sim.Submit(j, s.simNow)
	}
	s.abandonLocked()
	if s.wlog != nil {
		// Seal the shutdown: a final snapshot makes the next start replay
		// zero records (the clean-shutdown fast path). A crashed server
		// never gets here — halt reports the repeat — so a crash is not
		// retroactively tidied.
		_ = s.snapshotLocked()
		_ = s.wlog.Close()
	}
	s.mu.Unlock()
	if s.recorder != nil {
		// The loop is down, so no more rounds arrive; Close drains the
		// async scraper. The store stays queryable after Stop.
		s.recorder.Close()
	}
}

// abandonLocked abandons every pending job, releasing their ids and
// updating the unscheduled counter. Called with mu held.
func (s *Server) abandonLocked() {
	for _, j := range s.sim.Abandon() {
		delete(s.live, j.ID)
		s.unscheduled++
	}
}

// Drain blocks until the ingest queue and pending set are empty (the
// accelerated replay's "trace fully scheduled" condition), the round loop
// fails, or the context expires.
func (s *Server) Drain(ctx context.Context) error {
	wake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.future)+s.sim.Pending() > 0 && !s.stopped && s.runErr == nil && ctx.Err() == nil {
		s.cond.Wait()
	}
	if s.runErr != nil {
		return s.runErr
	}
	if ctx.Err() == nil && !s.stopped && s.wlog != nil {
		// The queue is drained — settled state, nothing in flight — so a
		// snapshot here means a subsequent restart replays zero records.
		_ = s.snapshotLocked()
	}
	return ctx.Err()
}

// Result returns the accumulated accounting (the same cluster.Result the
// offline replay produces). Call after Stop or Drain for a settled view.
func (s *Server) Result() *cluster.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim.Result()
}

// Err reports a scheduler failure that halted the round loop, if any.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Stopped reports whether the server has halted — by Stop, by Crash, or
// by a round-loop failure (see Err). The fleet supervisor's health probe:
// a shard that reports stopped without its fleet having stopped it is
// dead and a restart candidate.
func (s *Server) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped || s.runErr != nil
}

// SetQueueCap changes the ingest queue capacity at runtime — the
// scenario harness's queue-squeeze fault. A lower cap takes effect on
// the next Submit (already-queued jobs are never evicted); n <= 0 is
// ignored. Decision-neutral: capacity only selects which submissions are
// rejected, never how an accepted job is placed.
func (s *Server) SetQueueCap(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.cfg.QueueCap = n
	s.mu.Unlock()
}

// QueueCap reports the current ingest queue capacity.
func (s *Server) QueueCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.QueueCap
}

// Cursor is an atomic snapshot of the decision log's progress, taken
// together with a Decisions page so a merging consumer — the fleet
// gateway interleaving several shards' logs — can reason about what it
// has and has not seen.
type Cursor struct {
	// Seq is the latest sequence number assigned (0 before any decision).
	Seq uint64 `json:"seq"`
	// Oldest is the sequence number of the oldest entry still in the ring
	// (0 while the log is empty). A reader whose cursor has fallen below
	// Oldest-1 has lost decisions to ring eviction.
	Oldest uint64 `json:"oldest"`
	// Frontier is the round clock: every decision of rounds at or before
	// Frontier is already in the log, and later reads only ever append
	// decisions of strictly later rounds. Before the server's first round
	// it lies strictly before every possible decision round.
	Frontier time.Time `json:"frontier"`
	// Idle reports a fully drained server: nothing queued, nothing
	// pending, so no decision exists beyond Seq until new work arrives.
	Idle bool `json:"idle"`
}

// Decisions returns up to limit logged decisions with Seq > since, oldest
// first (limit <= 0 means all). The log is a bounded ring: decisions older
// than the last DecisionLogCap may be gone.
func (s *Server) Decisions(since uint64, limit int) []Decision {
	ds, _ := s.DecisionsPage(since, limit)
	return ds
}

// DecisionsPage is Decisions plus the log cursor, snapshotted atomically —
// the export the fleet's k-way merge is built on.
func (s *Server) DecisionsPage(since uint64, limit int) ([]Decision, Cursor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Group commit on read: every decision this call returns is on disk
	// before it leaves the process, so a served decision can never be
	// lost to a crash — the invariant the restart equivalence rests on.
	_ = s.walSyncIfDirtyLocked()
	cur := Cursor{
		Seq:      s.decSeq,
		Oldest:   s.decisions.Oldest(),
		Frontier: s.simNow,
		Idle:     len(s.future) == 0 && s.sim.Pending() == 0,
	}
	if s.nextK == 0 {
		// No round has run yet, so round 0 — whose time IS simNow — may
		// still produce decisions: the frontier lies strictly before it.
		// (After any round, nextK > 0 and every future decision's Round
		// exceeds simNow, so the plain round clock is the frontier.)
		cur.Frontier = s.simNow.Add(-time.Nanosecond)
	}
	return s.decisions.Page(since, limit), cur
}

// Regions returns the region IDs this server schedules over — the full
// environment's, or the Config.Regions partition when sharded.
func (s *Server) Regions() []region.ID { return s.cfg.Env.IDs() }

// Status returns a point-in-time service snapshot.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Scheduler: s.cfg.Scheduler.Name(),
		SimNow:    s.simNow,
		Round:     s.cfg.Round.String(),
		TimeScale: s.cfg.TimeScale,
		Pending:   s.sim.Pending(),
		Future:    len(s.future),
		QueueCap:  s.cfg.QueueCap,
		Accepted:  s.accepted,
		Rejected:  s.rejected,
		Rounds:    s.rounds,
		Decisions: s.decided,
		LastSeq:   s.decSeq,
		Free:      s.sim.Free(s.simNow),
	}
	st.Unscheduled = s.unscheduled
	st.Obs = s.ObsSnapshots().Summary(s.JobSampleEvery())
	if ss, ok := s.cfg.Scheduler.(solverStatser); ok {
		stats := ss.SolverStats()
		st.Solver = &stats
	}
	if prov := s.cfg.Env.Provider(); prov != nil {
		h := feed.HealthOf(prov)
		st.Feed = &h
	}
	st.WAL = s.walStatusLocked()
	if s.runErr != nil {
		st.Err = s.runErr.Error()
	}
	return st
}

// run is the round loop. Accelerated mode steps rounds back to back,
// fast-forwarding over idle gaps and parking on the condition variable when
// the queue is empty; paced mode fires rounds on a wall timer.
func (s *Server) run() {
	defer close(s.loopDone)
	if s.cfg.TimeScale == 0 {
		s.runAccelerated()
		return
	}
	s.runPaced()
}

func (s *Server) runAccelerated() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.runErr != nil {
			return
		}
		k, ok := s.nextRoundLocked()
		if !ok {
			s.cond.Wait()
			continue
		}
		s.nextK = k
		s.roundLocked()
		rounds := s.rounds
		// Yield the lock between rounds: a long drain must not starve the
		// HTTP endpoints (Submit/Status/Decisions) for its whole duration.
		// Go's mutex hands off to waiters that have queued >1ms, so this
		// bounds their latency to about one round. The round hooks run in
		// this gap — their gather path re-enters Status, which needs mu.
		s.mu.Unlock()
		s.notifyRound(rounds)
		s.mu.Lock()
	}
}

func (s *Server) runPaced() {
	s.mu.Lock()
	// Anchor the paced clock so simulated time continues from the
	// (possibly recovered) round clock rather than resetting to
	// Env.Start: the wall instant that maps to simNow is "now".
	s.wallStart = time.Now().Add(-time.Duration(float64(s.simNow.Sub(s.cfg.Env.Start)) / s.cfg.TimeScale))
	wallRound := time.Duration(float64(s.cfg.Round) / s.cfg.TimeScale)
	if wallRound < time.Millisecond {
		// An extreme TimeScale would truncate the tick to zero (which
		// panics time.NewTicker); at sub-millisecond pacing the accelerated
		// mode is the right tool anyway.
		wallRound = time.Millisecond
	}
	s.mu.Unlock()
	tick := time.NewTicker(wallRound)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		if s.stopped || s.runErr != nil {
			s.mu.Unlock()
			return
		}
		// Derive the round index from the wall clock rather than counting
		// ticks: a slow round (or GC stall) drops ticker ticks, and a
		// tick-counted clock would lag the wall-anchored simAt stamping of
		// live submissions forever. Missed rounds coalesce into the next.
		k := int64(float64(time.Since(s.wallStart)) * s.cfg.TimeScale / float64(s.cfg.Round))
		if k > s.nextK {
			s.nextK = k
		}
		s.roundLocked()
		rounds := s.rounds
		s.mu.Unlock()
		s.notifyRound(rounds)
	}
}

// nextRoundLocked picks the next round index to run in accelerated mode:
// the very next round while jobs are pending (deferred jobs are re-offered
// every round, as offline), otherwise the round aligned at or after the
// earliest queued arrival. No work → no round.
func (s *Server) nextRoundLocked() (int64, bool) {
	if s.sim.Pending() > 0 {
		return s.nextK, true
	}
	if len(s.future) > 0 {
		due := s.future[0].Submit.Sub(s.cfg.Env.Start)
		k := int64((due + s.cfg.Round - 1) / s.cfg.Round)
		if k < s.nextK {
			k = s.nextK
		}
		return k, true
	}
	return 0, false
}

// roundLocked is the live driver of a round: it runs round nextK through
// ingestDueLocked and stepLocked and adds what only a live round does —
// the round trace, the empty-round skip, horizon abandonment, the WAL
// round record, and waking waiters. Called with mu held.
func (s *Server) roundLocked() {
	k := s.nextK
	// The round trace is measurement only: it reads clocks and counters
	// but feeds nothing back into scheduling.
	rt := obs.RoundTrace{Index: k, Wall: time.Now()}
	now := s.ingestDueLocked(k, rt.Wall)
	rt.Sim = now
	rt.Stages[obs.StageIngest] = time.Since(rt.Wall)
	defer s.cond.Broadcast()
	if !now.Before(s.cfg.Env.End()) {
		// The service clock ran off the environment horizon (possible only
		// with jobs that could never be placed: every accepted submission
		// lies inside the horizon). Abandon them rather than spin rounds
		// against an environment with no snapshots — the serving analogue
		// of the offline replay's drain cutoff.
		s.abandonLocked()
		return
	}
	if s.sim.Pending() == 0 {
		return
	}
	rt.Batch = s.sim.Pending()
	wall, solve, err := s.stepLocked(k, nil)
	if err != nil {
		s.runErr = err
		return
	}
	rt.Stages[obs.StageSolve] = solve
	rt.Stages[obs.StagePublish] = time.Since(wall)
	rt.Decided = len(s.roundDecs)
	if s.wlog != nil {
		// Group-commit the round (decisions included even when the batch
		// was fully deferred: a zero-decision stepped round still must
		// replay, since it advanced the scheduler's history learner. The
		// deferral counters it bumped are snapshot-format bookkeeping
		// only; Eq. 14's urgency reads FirstSeen).
		s.walRoundLocked(k, &rt)
	}
	rt.Total = time.Since(rt.Wall)
	ob := s.obs
	if ss, ok := s.cfg.Scheduler.(solverStatser); ok {
		// Per-round solver deltas: the cumulative stats minus the
		// previous round's, so a slow round shows its own node count.
		stats := ss.SolverStats()
		rt.Nodes = stats.Nodes - ob.lastSolver.Nodes
		rt.SimplexIters = stats.SimplexIters - ob.lastSolver.SimplexIters
		rt.WarmStarts = stats.WarmStarts - ob.lastSolver.WarmStarts
		rt.ColdStarts = stats.ColdStarts - ob.lastSolver.ColdStarts
		ob.lastSolver = stats
	}
	ob.recordRound(rt)
}

// ingestDueLocked is the first half of a round, live or replayed: move
// the round clock to round k and hand the simulator every arrival due by
// then. Returns the round's instant; wall stamps sampled job traces.
func (s *Server) ingestDueLocked(k int64, wall time.Time) time.Time {
	now := s.cfg.Env.Start.Add(time.Duration(k) * s.cfg.Round)
	s.nextK, s.simNow = k+1, now
	for len(s.future) > 0 && !s.future[0].Submit.After(now) {
		job := heap.Pop(&s.future).(*trace.Job)
		s.sim.Submit(job, now)
		s.obs.jobs.Batched(job.ID, k, now, wall)
	}
	return now
}

// stepLocked is the second half of a round and the only place the server
// steps its simulator: schedule the pending set at the round clock, then
// publish each outcome as the next decision (seq, dedupe index, ring,
// s.roundDecs). Live rounds pass a nil logged; replay passes the round
// record's decisions, which the step must re-derive exactly (the log is
// determinism's checksum) and which are published in place of their
// twins, so DecidedWall survives a restart. Returns the commit instant
// and the solve time. Called with mu held.
func (s *Server) stepLocked(k int64, logged []Decision) (wall time.Time, solve time.Duration, err error) {
	now := s.simNow
	t0 := time.Now()
	outcomes, err := s.sim.Step(now)
	wall = time.Now()
	solve = wall.Sub(t0)
	s.overheadSum += solve
	s.rounds++
	s.roundDecs = s.roundDecs[:0]
	if err != nil {
		return wall, solve, err
	}
	if logged != nil && len(outcomes) != len(logged) {
		return wall, solve, fmt.Errorf("%w: re-derived %d decisions, log has %d", ErrReplayDiverged, len(outcomes), len(logged))
	}
	for i := range outcomes {
		o := &outcomes[i]
		s.decSeq++
		s.decided++
		d := Decision{
			Seq: s.decSeq, JobID: o.Job.ID, Region: o.Region,
			Round: now, Start: o.Start, Finish: o.Finish,
			CarbonG:     float64(o.Compute.Carbon() + o.Comm.Carbon()),
			WaterL:      float64(o.Compute.Water() + o.Comm.Water()),
			DecidedWall: wall,
		}
		if logged != nil {
			ld := logged[i]
			if ld.Seq != d.Seq || ld.JobID != d.JobID || ld.Region != d.Region ||
				!ld.Start.Equal(d.Start) || !ld.Finish.Equal(d.Finish) {
				return wall, solve, fmt.Errorf("%w: decision %d: re-derived job %d -> %s [%v, %v] seq %d, log says %+v",
					ErrReplayDiverged, i, d.JobID, d.Region, d.Start, d.Finish, d.Seq, ld)
			}
			d = ld
		}
		accepted := s.recordDecidedLocked(d.JobID)
		s.decisions.Append(d)
		s.roundDecs = append(s.roundDecs, d)
		if !accepted.IsZero() {
			s.obs.decision.Record(wall.Sub(accepted).Seconds())
		}
		s.obs.jobs.Decided(d.JobID, k, wall, string(d.Region), d.Start, d.Finish)
	}
	return wall, solve, nil
}
