// Package server implements the online scheduling service: the long-running
// form of the WaterWise Optimization Decision Controller. Where cluster.Run
// replays a static trace offline, the service ingests a continuous stream of
// job arrivals over HTTP/JSON or the binary stream protocol, micro-batches
// them into scheduling rounds on a configurable cadence, and feeds them to
// the same incremental simulator (cluster.Sim) and scheduler stack the
// offline path uses — so an accelerated-time replay of a trace through the
// service reproduces cluster.Run decision for decision.
//
// A Server runs N >= 1 shards. Each shard is a full scheduling engine — its
// own ingest queue, round loop, solver stack, decision ring and write-ahead
// log — over a disjoint partition of the regions of one shared
// region.Environment (an Environment.Partition view: same series, fewer
// regions). The Server routes each submission by home region to the owning
// shard, merges the shard decision logs into one globally seq-numbered
// stream, and serves one status, one metrics exposition and one flight
// recorder with per-shard labels. One shard is the default, and its
// partition is the whole environment.
//
// Sharding by home region is exact, not approximate: within each partition
// the service is decision-for-decision identical to the offline cluster.Run
// over that partition. The trade is that geo-shifting is confined to the
// partition: operators group regions so the moves that matter stay
// intra-shard (e.g. one shard per continent).
//
// The merged stream is ordered by (round, shard, shard-seq) under a round
// watermark: a decision is emitted only once every shard's round clock has
// passed its round (a drained shard's clock counts as infinite), so the
// interleaving is deterministic however far the shards' accelerated clocks
// diverge. Global sequence numbers are dense by construction; shard-ring
// evictions that outrun the merge are counted as Lost. One shard's log
// merges to itself, so a one-shard service serves its shard's ring as is.
//
// A shard that dies — killed, crashed, or halted by a round-loop failure —
// refuses its submissions with ErrShardDown, and a durable service rebuilds
// it from its data directory on its own (see failover.go).
//
// The service clock runs in simulated time. In paced mode (TimeScale > 0)
// the simulated clock advances TimeScale simulated seconds per wall second
// and rounds fire on a wall timer; in accelerated mode (TimeScale == 0)
// rounds fire back to back as fast as the solver allows, fast-forwarding
// over idle gaps — the mode for replay, benchmarking, and tests.
//
// Ingest is bounded: QueueCap caps the jobs each shard queues ahead of
// placement, and Submit rejects (ErrQueueFull) once it is reached —
// backpressure the HTTP layer translates to 429 Too Many Requests.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/feed"
	"waterwise/internal/footprint"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/transport"
	"waterwise/internal/tsdb"
	"waterwise/internal/wire"
)

// Config parameterizes the scheduling service.
type Config struct {
	// Env is the environment (regions, grids, weather) decisions read; each
	// shard sees a partition view of it, never a reseeded copy.
	Env *region.Environment
	// Net is the inter-region transfer model and FP the footprint model,
	// shared by every shard; nil takes cluster.Config's defaults
	// (transfer.New(), unperturbed).
	Net *transfer.Model
	FP  *footprint.Model
	// Scheduler decides placements for a one-shard service — shorthand for
	// a NewScheduler that returns it. The instance carries its shard's
	// history, so a shard built from it is never restarted: it stays down
	// once dead.
	Scheduler cluster.Scheduler
	// NewScheduler builds one shard's scheduler, at New and again at every
	// restart. Schedulers are stateful and single-threaded by the
	// cluster.Scheduler contract, so every shard needs its own instance:
	// required for more than one shard. Set Scheduler or NewScheduler.
	NewScheduler func(shard int, regions []region.ID) (cluster.Scheduler, error)
	// Shards is the shard count (default 1; at most the region count).
	Shards int
	// ShardMap pins regions to shards (region → shard index in
	// [0, Shards)). Regions absent from the map are dealt to the emptiest
	// shard in environment order; every shard must end up owning at least
	// one region.
	ShardMap map[region.ID]int
	// Tolerance is the delay tolerance TOL as a fraction (e.g. 0.5).
	Tolerance float64
	// Round is the micro-batching cadence in simulated time (default 1m),
	// shared by every shard so their round clocks stay aligned.
	Round time.Duration
	// TimeScale maps wall time to simulated time: simulated seconds per
	// wall second. 1 runs in real time, 60 packs a simulated hour into a
	// wall minute; 0 (the default) is accelerated mode — rounds run back to
	// back with no pacing, fast-forwarding over idle stretches.
	TimeScale float64
	// QueueCap bounds the jobs each shard queues ahead of placement
	// (pending rounds + not-yet-due arrivals). Submit rejects once reached.
	// Default 65536.
	QueueCap int
	// DecisionLogCap bounds each shard's decision ring and the merged one
	// (default 65536). Older decisions are dropped from the log (never
	// from the accounting).
	DecisionLogCap int
	// DataDir, when non-empty, makes the service durable: shard i writes
	// accepted jobs and scheduling rounds ahead to a segmented WAL under
	// DataDir/shard-<i>, snapshots settled state periodically, and New
	// recovers every shard's directory before serving (see durable.go). A
	// shard that dies is rebuilt from its directory the same way, given
	// NewScheduler. Empty keeps the service purely in-memory.
	DataDir string
	// SnapshotEvery is the snapshot cadence in scheduling rounds
	// (default 256). Ignored without DataDir.
	SnapshotEvery int
	// SyncInterval bounds how long an acknowledged job may sit in the
	// WAL's user-space buffer before a group commit when no round fires
	// (default 100ms). Rounds always commit their batch on completion.
	SyncInterval time.Duration
	// WALSyncDelay is passed to every shard's write-ahead log as its fsync
	// latency hook (wal.Options.SyncDelay): the scenario harness injects
	// slow-disk stalls through it. Nil — the default — is exactly free.
	WALSyncDelay func() time.Duration
	// Record, when set, turns on the metrics flight recorder: the service
	// scrapes its own /metrics exposition at the end of scheduling rounds
	// into an in-process time-series store (internal/tsdb), serving
	// windowed rate/increase/quantile queries and burn-rate SLO alerts
	// over recorded history on /v1/query and /v1/alerts. Nil — the
	// default — records nothing. Measurement only: recording never feeds
	// back into scheduling (TestRecorderEquivalence pins this).
	Record *tsdb.Config
	// OnRound, when set, runs after every round of every shard is
	// published, with the shard's index and completed-round count, on the
	// shard's round-loop goroutine with its lock released; the next round
	// and Drain wait for it. It may Submit, read status and SetQueueCap,
	// but must not KillShard, Stop, Crash or Drain: those wait for the
	// loop it runs on. The scenario harness drives its faults from it.
	OnRound func(shard int, rounds uint64)
}

func (c Config) withDefaults() (Config, error) {
	if c.Env == nil {
		return c, errors.New("server: nil environment")
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	switch {
	case c.Scheduler != nil && c.NewScheduler != nil:
		return c, errors.New("server: set Scheduler or NewScheduler, not both")
	case c.Scheduler == nil && c.NewScheduler == nil:
		return c, errors.New("server: nil scheduler")
	case c.Scheduler != nil && c.Shards > 1:
		return c, fmt.Errorf("server: %d shards need NewScheduler, one scheduler each", c.Shards)
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

// secondsToDuration converts float seconds to a Duration, rounding to the
// nearest nanosecond so millisecond-quantized wire values map exactly.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// Typed ingest rejections. Submit wraps each with the offending detail
// (region name, job id, instant), so callers branch with errors.Is and the
// HTTP and stream layers map each cause to a distinct status instead of
// matching message strings.
var (
	// ErrQueueFull is returned by Submit when the owning shard's ingest
	// queue is at QueueCap — the service's backpressure signal.
	ErrQueueFull = errors.New("server: ingest queue full")
	// ErrStopped is returned by Submit after Stop.
	ErrStopped = errors.New("server: stopped")
	// ErrShardDown is returned by Submit for a home region whose shard has
	// died: it has no log to write the job ahead to. A durable service
	// brings the shard back on its own, so the client retries.
	ErrShardDown = errors.New("server: shard down")
	// ErrUnknownRegion rejects a home region the service does not serve.
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

// Decision is one placement as a shard logs it. Its instants are in UTC.
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

// LogSeq returns Seq, so a Ring can hold Decisions (or MergedDecisions,
// which embed one).
func (d Decision) LogSeq() uint64 { return d.Seq }

// MergedDecision is one entry of the service's decision log: a shard's
// decision re-stamped with the service-wide sequence number. Seq (in the
// embedded Decision) carries the global stream position; ShardSeq keeps
// the shard-local number the merge consumed.
type MergedDecision struct {
	Decision
	Shard    int    `json:"shard"`
	ShardSeq uint64 `json:"shard_seq"`
}

// ShardStatus is one shard's point-in-time snapshot.
type ShardStatus struct {
	Shard     int         `json:"shard"`
	Regions   []region.ID `json:"regions"`
	SimNow    time.Time   `json:"sim_now"`
	Pending   int         `json:"pending"`
	Future    int         `json:"future"`
	QueueCap  int         `json:"queue_cap"`
	Accepted  uint64      `json:"accepted"`
	Rejected  uint64      `json:"rejected"`
	Rounds    uint64      `json:"rounds"`
	Decisions uint64      `json:"decisions"`
	// LastSeq is the newest shard-local decision sequence number.
	LastSeq     uint64 `json:"last_seq"`
	Unscheduled int    `json:"unscheduled"`
	// Free is the per-region free server count at SimNow.
	Free map[region.ID]int `json:"free"`
	// Obs digests the shard's latency histograms.
	Obs *ObsSummary `json:"obs,omitempty"`
	// Solver carries the round solver's accounting when the scheduler
	// exposes it (the WaterWise controller does: solve wall time).
	Solver *transport.Stats `json:"solver,omitempty"`
	// WAL reports the durability layer — log size, fsync accounting, and
	// what the last restart recovered — when DataDir is configured.
	WAL *WALStatus `json:"wal,omitempty"`
	// Down reports a dead shard: it refuses submissions until a restart
	// replaces it. Restarts counts the times it was rebuilt from its data
	// directory.
	Down     bool   `json:"down,omitempty"`
	Restarts uint64 `json:"restarts,omitempty"`
	// Err reports a failure that halted the round loop, or what keeps a
	// down shard from being rebuilt.
	Err string `json:"err,omitempty"`
	// LastErr is why the shard last died — a round-loop failure, or a
	// kill — kept after a restart replaces it, so a repeating disk or
	// solver fault stays visible.
	LastErr string `json:"last_err,omitempty"`
}

// Status is a point-in-time service snapshot: counters summed over the
// shards, the union of their free servers, and every shard's own snapshot.
type Status struct {
	Shards    int    `json:"shards"`
	Scheduler string `json:"scheduler"`
	// SimNow is the furthest shard round clock.
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
	// Merged counts decisions emitted into the merged stream; it trails
	// Decisions until the next merge pull catches up.
	Merged uint64 `json:"merged"`
	// LastSeq is the newest merged sequence number: the cursor a fresh
	// poller resumes behind.
	LastSeq uint64 `json:"last_seq"`
	// Lost counts decisions evicted from a shard's ring before the merge
	// read them (log gap — a sizing failure; see DESIGN.md).
	Lost        uint64            `json:"lost"`
	Unscheduled int               `json:"unscheduled"`
	Free        map[region.ID]int `json:"free"`
	// Obs digests the service's histograms — every shard's decision
	// latency and round timings merged, plus the ingest handler's.
	Obs *ObsSummary `json:"obs,omitempty"`
	// Solver sums the shards' solver instrumentation.
	Solver *transport.Stats `json:"solver,omitempty"`
	// Feed reports the one environment feed every shard reads: which
	// provider, how stale its readings are, and its fetch/cache accounting.
	Feed *feed.Health `json:"feed,omitempty"`
	// WAL sums the shards' durability blocks.
	WAL *WALStatus `json:"wal,omitempty"`
	// Restarts sums the shards' restarts from their data directories.
	Restarts uint64 `json:"restarts"`
	// Err reports the first shard whose round loop failed.
	Err         string        `json:"err,omitempty"`
	ShardStatus []ShardStatus `json:"shard_status"`
}

// Server is the online scheduling service. Construct with New, attach the
// HTTP API via Handler (and the stream protocol via ServeStream), start
// the round loops with Start, and stop with Stop.
type Server struct {
	cfg   Config
	parts [][]region.ID
	owner map[region.ID]int

	// ingest records POST /v1/jobs wall time; recorder is the flight
	// recorder (nil unless Record is set). Both are immutable after New.
	ingest   obs.Histogram
	recorder *tsdb.Recorder

	// mu guards routing: the shard slice (a restart swaps an entry), the
	// id counter, and the failover state (see failover.go). It is never
	// held while a shard's lock is waited on by a round.
	mu      sync.Mutex
	shards  []*shard
	autoID  int
	started bool
	failover

	// mergeMu guards the k-way merge: the per-shard local-seq cursor,
	// decisions fetched but not yet past the watermark, and the merged log.
	mergeMu sync.Mutex
	cursors []uint64
	staged  [][]decRecord
	merged  Ring[mergedRecord]
	seq     uint64
	lost    uint64

	// published wakes the stream pushers when new merged decisions may be
	// readable.
	published publisher
}

// publisher is the service's publish signal. Every event that can make
// new merged decisions readable closes the channel its waiters hold: a
// shard's completed round (observeRound), a shard's death (shardDown) or
// restart, and Stop's final merge. Nothing else moves the merge: a
// submission can only hold decisions back, never release them.
type publisher struct {
	mu sync.Mutex
	ch chan struct{}
}

// wait returns a channel the next publish closes. A reader takes it before
// it reads the log, so an event landing between the two still wakes it.
func (p *publisher) wait() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		p.ch = make(chan struct{})
	}
	return p.ch
}

// publish wakes every waiter; with none waiting it allocates nothing.
func (p *publisher) publish() {
	p.mu.Lock()
	if p.ch != nil {
		close(p.ch)
		p.ch = nil
	}
	p.mu.Unlock()
}

// partition assigns every region of env to a shard: pinned regions first,
// the rest dealt to the emptiest shard in environment order.
func partition(env *region.Environment, shards int, pin map[region.ID]int) ([][]region.ID, error) {
	ids := env.IDs()
	if shards > len(ids) {
		return nil, fmt.Errorf("server: %d shards over %d regions leaves empty shards", shards, len(ids))
	}
	for id, s := range pin {
		if env.Region(id) == nil {
			return nil, fmt.Errorf("server: shard map names unknown region %q", id)
		}
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("server: shard map sends region %q to shard %d of %d", id, s, shards)
		}
	}
	parts := make([][]region.ID, shards)
	for _, id := range ids {
		if s, ok := pin[id]; ok {
			parts[s] = append(parts[s], id)
		}
	}
	for _, id := range ids {
		if _, ok := pin[id]; ok {
			continue
		}
		best := 0
		for s := 1; s < shards; s++ {
			if len(parts[s]) < len(parts[best]) {
				best = s
			}
		}
		parts[best] = append(parts[best], id)
	}
	for s, p := range parts {
		if len(p) == 0 {
			return nil, fmt.Errorf("server: shard map leaves shard %d with no regions", s)
		}
	}
	return parts, nil
}

// New validates cfg, partitions the environment, and builds — or, with
// DataDir, recovers — every shard; call Start to begin scheduling rounds.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		// One layout: shard i under DataDir/shard-<i>. A log at the top
		// level is a single server's from before that rule; starting empty
		// next to it would silently drop its history.
		if top, _ := filepath.Glob(filepath.Join(cfg.DataDir, "*.wal")); len(top) > 0 {
			return nil, fmt.Errorf("server: %s holds a write-ahead log at its top level, the old single-server layout; "+
				"shard i keeps its log in %s: move the files into %s",
				cfg.DataDir, filepath.Join(cfg.DataDir, "shard-<i>"), filepath.Join(cfg.DataDir, "shard-0"))
		}
	}
	parts, err := partition(cfg.Env, cfg.Shards, cfg.ShardMap)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		parts:    parts,
		owner:    make(map[region.ID]int, len(cfg.Env.Regions)),
		shards:   make([]*shard, cfg.Shards),
		failover: newFailover(cfg),
		cursors:  make([]uint64, cfg.Shards),
		staged:   make([][]decRecord, cfg.Shards),
		merged:   NewRing[mergedRecord](cfg.DecisionLogCap),
	}
	s.up = sync.NewCond(&s.mu)
	for i, p := range parts {
		for _, id := range p {
			s.owner[id] = i
		}
		sh, err := s.buildShard(i, cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
		// A recovered shard already owns ids up to its next auto id; the
		// service-wide counter must never re-mint one of them. Its ring may
		// have evicted decisions a previous process merged: the merge
		// resumes behind the oldest one left, and the merged seq after them,
		// rather than counting them lost.
		s.autoID = max(s.autoID, sh.autoID)
		if oldest := sh.decisions.Oldest(); oldest > 1 {
			s.cursors[i] = oldest - 1
			s.seq += oldest - 1
		}
	}
	if cfg.Record != nil {
		if s.recorder, err = tsdb.New(s.MetricsText, *cfg.Record); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	return s, nil
}

// buildShard constructs (or, with DataDir, recovers) shard i over its
// partition from the service config cfg. Called from New and from a
// restart.
func (s *Server) buildShard(i int, cfg Config) (*shard, error) {
	var err error
	if cfg.NewScheduler != nil {
		if cfg.Scheduler, err = cfg.NewScheduler(i, s.parts[i]); err != nil {
			return nil, fmt.Errorf("server: building shard %d scheduler: %w", i, err)
		}
	}
	if cfg.Env, err = cfg.Env.Partition(s.parts[i]...); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.DataDir != "" {
		cfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", i))
	}
	sh, err := newShard(i, cfg, s.observeRound, s.shardDown)
	if err != nil {
		return nil, fmt.Errorf("server: building shard %d: %w", i, err)
	}
	return sh, nil
}

// observeRound is every shard's end-of-round hook. It publishes the
// round's decisions to the stream pushers, and each shard reports its own
// completed-round count to the recorder, which keeps the maximum, so its
// clock is the service's progress clock; then it runs Config.OnRound.
// Runs on the shard's round-loop goroutine with the shard's lock released.
func (s *Server) observeRound(shard int, rounds uint64) {
	s.published.publish()
	if s.recorder != nil {
		s.recorder.Observe(rounds)
	}
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(shard, rounds)
	}
}

// Recorder exposes the flight recorder for queries; nil when recording is
// disabled.
func (s *Server) Recorder() *tsdb.Recorder { return s.recorder }

// Partitions returns each shard's region partition (copies).
func (s *Server) Partitions() [][]region.ID {
	out := make([][]region.ID, len(s.parts))
	for i, p := range s.parts {
		out[i] = append([]region.ID(nil), p...)
	}
	return out
}

// shardList snapshots the shard slice so iterating methods tolerate a
// concurrent restart swapping an entry.
func (s *Server) shardList() []*shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*shard(nil), s.shards...)
}

// eachShard runs fn on every shard concurrently — a shard mid-drain must
// not delay the others — and waits for all of them.
func (s *Server) eachShard(fn func(i int, sh *shard)) {
	var wg sync.WaitGroup
	for i, sh := range s.shardList() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, sh)
		}()
	}
	wg.Wait()
}

// Submit routes one job to the shard owning its home region. The returned
// id is the job's identity in the decision log; ids are assigned
// service-wide when the spec carries none, and client-assigned ids must be
// unique per home shard (globally unique ids satisfy that trivially).
// Rejections: ErrQueueFull (backpressure), ErrStopped, ErrShardDown (the
// home shard is dead), duplicate ids, unknown benchmarks or regions, and
// submit instants outside the environment horizon.
//
// Re-submits are idempotent: a client-assigned id whose spec matches what
// the shard already accepted (queued or decided, up to dedupeCap history)
// is acknowledged again with the original id and no new job — the
// safe-retry contract clients rely on after a connection error, a refusal
// by a dead shard, or a restart.
//
// Submit is SubmitBatch's one-job case.
func (s *Server) Submit(spec JobSpec) (int, error) {
	var out [1]Admission
	s.submitFrame([]JobSpec{spec}, out[:], false)
	if out[0].Err != nil {
		return 0, out[0].Err
	}
	return out[0].ID, nil
}

// Admission is one job's outcome in a SubmitBatch: the id it is logged
// under, or why it was refused (ID is meaningful only when Err is nil).
type Admission struct {
	ID  int
	Err error

	// Between routing and a shard's admission: the owning shard, and the
	// job built from the spec with its digest.
	sh     *shard
	job    *trace.Job
	digest uint64
}

// SubmitBatch admits a frame of jobs with Submit's contract per job — the
// same checks, the same typed rejections, the same idempotent retries —
// and returns their outcomes in out (reused when large enough), one per
// spec in order. Every spec is tried, whatever the others' outcomes. The
// frame's auto ids are assigned under one acquisition of the routing
// lock, and each shard admits its jobs in frame order under one
// acquisition of its own lock, waking its round loop once.
func (s *Server) SubmitBatch(specs []JobSpec, out []Admission) []Admission {
	out = slices.Grow(out[:0], len(specs))[:len(specs)]
	s.submitFrame(specs, out, false)
	return out
}

// submitFrame is the one admission path, behind Submit, SubmitBatch and
// POST /v1/jobs. It routes every spec and assigns its id under one
// acquisition of s.mu, then hands each shard its entries. Without prefix
// every spec is tried and each shard takes all of its entries at once.
// With prefix — HTTP's accepted-prefix contract — admission stops at the
// first rejection: the frame goes to the shards as runs of consecutive
// same-shard specs, in order, and nothing after the rejection is
// admitted. It returns how many leading specs were tried: len(specs), or
// the rejected one's index + 1. Ids are assigned before any shard admits,
// so specs cut off after a rejection leave their auto ids unused, as a
// rejected job does.
func (s *Server) submitFrame(specs []JobSpec, out []Admission, prefix bool) int {
	n := len(specs)
	s.mu.Lock()
	for i := range specs {
		out[i] = Admission{}
		o, ok := s.owner[specs[i].Home]
		if !ok {
			out[i].Err = fmt.Errorf("%w: %q", ErrUnknownRegion, specs[i].Home)
			if prefix {
				n = i + 1
				break
			}
			continue
		}
		id := s.autoID
		if specs[i].ID != nil {
			id = *specs[i].ID
		}
		s.autoID = max(s.autoID, id+1)
		out[i].ID, out[i].sh = id, s.shards[o]
	}
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		sh := out[i].sh
		if sh == nil {
			continue // refused at routing, or admitted with its shard's earlier entries
		}
		end := n
		if prefix {
			end = i + 1
			for end < n && out[end].sh == sh {
				end++
			}
		}
		if stop := sh.admit(specs[i:end], out[i:end], prefix); stop >= 0 {
			return i + stop + 1
		}
	}
	return n
}

// Start launches every shard's round loop.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	for _, sh := range s.shardList() {
		sh.Start()
	}
}

// Stop ends restarts first (so the shutdown is not mistaken for a crash
// and "repaired"), then stops every shard concurrently — abandoning
// still-queued jobs into Result().Unscheduled — then merges the final
// decisions and publishes them to live subscribers. Idempotent.
func (s *Server) Stop() {
	s.haltRestarts()
	s.eachShard(func(_ int, sh *shard) { sh.Stop() })
	s.DecisionsPage(math.MaxUint64, 0)
	s.published.publish()
	if s.recorder != nil {
		// Every round loop is down, so no more rounds arrive; Close records
		// the newest round the floor held back. The store stays queryable
		// after Stop.
		s.recorder.Close()
	}
}

// Crash simulates a process kill for fault-injection tests: restarts end,
// every shard crash-stops as KillShard's does, and nothing is sealed.
// Recovery is a New over the same DataDir.
func (s *Server) Crash() {
	s.haltRestarts()
	s.eachShard(func(_ int, sh *shard) { sh.Crash() })
}

// Drain blocks until every shard's queue and pending set are empty (the
// accelerated replay's "trace fully scheduled" condition), a shard dies
// with no restart coming (ErrShardDown), or the context expires, then
// merges the settled logs: with every shard drained the merged stream is
// total. A shard a durable service restarts is drained through its
// restart.
func (s *Server) Drain(ctx context.Context) error {
	errs := make([]error, len(s.parts))
	s.eachShard(func(i int, sh *shard) {
		for sh != nil {
			if errs[i] = sh.Drain(ctx); !errors.Is(errs[i], ErrShardDown) {
				return
			}
			sh = s.replacement(ctx, sh)
		}
	})
	s.DecisionsPage(math.MaxUint64, 0)
	return errors.Join(errs...)
}

// Result merges every shard's accounting into one cluster.Result — the
// same the offline replay produces, outcomes in job-id order. Call after
// Stop or Drain for a settled view.
func (s *Server) Result() *cluster.Result {
	shards := s.shardList()
	parts := make([]*cluster.Result, len(shards))
	for i, sh := range shards {
		parts[i] = sh.Result()
	}
	res, _ := cluster.MergeResults(parts...) // non-nil parts, one tolerance: cannot fail
	return res
}

// SetQueueCap changes every shard's ingest queue capacity at runtime — the
// scenario harness's queue-squeeze fault. A lower cap takes effect on the
// next Submit (already-queued jobs are never evicted); n <= 0 is ignored.
// Decision-neutral: capacity only selects which submissions are rejected,
// never how an accepted job is placed.
func (s *Server) SetQueueCap(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.cfg.QueueCap = n // restarted shards follow
	s.mu.Unlock()
	for _, sh := range s.shardList() {
		sh.setQueueCap(n)
	}
}

// mergeLocked advances the k-way merge: pull new decisions from every
// shard, then emit into the merged ring — in (round, shard, shard-seq)
// order — every staged decision whose round is final service-wide. A round
// is final once each shard's frontier has passed it; a drained shard's
// frontier counts as infinite (it cannot decide anything at a round it
// has already slept through unless new work arrives, in which case those
// decisions join the stream late but the global seq stays dense). Returns
// the merged log's cursor: its Frontier is the watermark, zero when every
// shard is idle. Rounds are compared as Unix nanoseconds. Called with
// mergeMu held; takes each shard's lock via readDecisions, which stages
// the new decisions straight from the shard's ring.
func (s *Server) mergeLocked() Cursor {
	var watermark time.Time
	var wm int64
	bounded := false
	for i, sh := range s.shardList() {
		had := len(s.staged[i])
		cur := sh.readDecisions(func(log *Ring[decRecord]) {
			s.staged[i] = log.appendPage(s.staged[i], s.cursors[i])
		})
		if fresh := s.staged[i][had:]; len(fresh) > 0 {
			if first := fresh[0].seq; first > s.cursors[i]+1 {
				// The shard ring evicted decisions before we read them:
				// count the gap instead of silently renumbering over it.
				s.lost += first - s.cursors[i] - 1
			}
			s.cursors[i] = fresh[len(fresh)-1].seq
		}
		if !cur.Idle && (!bounded || cur.Frontier.Before(watermark)) {
			watermark, wm, bounded = cur.Frontier, wire.TimeNano(cur.Frontier), true
		}
	}
	for {
		best := -1
		for i := range s.staged {
			if len(s.staged[i]) == 0 {
				continue
			}
			h := &s.staged[i][0]
			if bounded && h.round > wm {
				continue
			}
			if best == -1 || h.round < s.staged[best][0].round {
				best = i
			}
		}
		if best == -1 {
			break
		}
		d := s.staged[best][0]
		s.staged[best] = s.staged[best][1:]
		if len(s.staged[best]) == 0 {
			s.staged[best] = nil // release the drained backing array
		}
		s.seq++
		s.merged.Append(mergedRecord{seq: s.seq, d: d})
	}
	return Cursor{Seq: s.seq, Oldest: s.merged.Oldest(), Frontier: watermark, Idle: !bounded}
}

// ShardStatus returns shard i's own snapshot: one entry of
// Status.ShardStatus without the merge and the sums, for a caller
// that follows one shard, such as an OnRound hook.
func (s *Server) ShardStatus(i int) ShardStatus {
	s.mu.Lock()
	sh, down, restarts := s.shards[i], s.down[i], s.restarts[i]
	restartErr, lastDown := s.restartErr[i], s.lastDown[i]
	s.mu.Unlock()
	st := sh.Status()
	st.Down, st.Restarts = down, restarts
	if down && restartErr != nil {
		st.Err = restartErr.Error()
	}
	if lastDown != nil {
		st.LastErr = lastDown.Error()
	}
	return st
}

// Status returns a point-in-time service snapshot.
func (s *Server) Status() Status {
	st := Status{
		Shards:    len(s.parts),
		Round:     s.cfg.Round.String(),
		TimeScale: s.cfg.TimeScale,
		Free:      make(map[region.ID]int),
	}
	// Merge before reading the shard counters: a decision logged between
	// the two reads then shows up in Decisions but not yet in Merged,
	// keeping the documented Merged <= Decisions invariant (monitors
	// compute the backlog as their difference).
	_, cur := s.DecisionsPage(math.MaxUint64, 1)
	st.Merged, st.LastSeq = cur.Seq, cur.Seq
	s.mergeMu.Lock()
	st.Lost = s.lost
	s.mergeMu.Unlock()
	shards := s.shardList()
	st.Scheduler = shards[0].cfg.Scheduler.Name()
	st.ShardStatus = make([]ShardStatus, len(shards))
	for i := range shards {
		ss := s.ShardStatus(i)
		st.ShardStatus[i] = ss
		if ss.SimNow.After(st.SimNow) {
			st.SimNow = ss.SimNow
		}
		st.Pending += ss.Pending
		st.Future += ss.Future
		st.QueueCap += ss.QueueCap
		st.Accepted += ss.Accepted
		st.Rejected += ss.Rejected
		st.Rounds += ss.Rounds
		st.Decisions += ss.Decisions
		st.Restarts += ss.Restarts
		st.Unscheduled += ss.Unscheduled
		for id, n := range ss.Free {
			st.Free[id] = n
		}
		if ss.Solver != nil {
			if st.Solver == nil {
				st.Solver = &transport.Stats{}
			}
			st.Solver.Add(*ss.Solver)
		}
		if ss.WAL != nil {
			if st.WAL == nil {
				st.WAL = &WALStatus{}
			}
			st.WAL.add(ss.WAL)
		}
		if st.Err == "" {
			st.Err = ss.Err
		}
	}
	st.Obs = s.ObsSnapshots().summary(shards[0].obs.jobs.SampleEvery())
	if prov := s.cfg.Env.Provider(); prov != nil {
		h := feed.HealthOf(prov)
		st.Feed = &h
	}
	return st
}
