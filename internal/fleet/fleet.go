// Package fleet is the horizontal scale-out layer of the serving stack: N
// scheduler shards behind one gateway. Each shard is a full server.Server
// owning a disjoint partition of the regions of one shared
// region.Environment (an Environment.Partition view — same generated
// series, fewer regions), running its own round loop, solver stack, and
// decision log. The gateway routes job submissions by home region to the
// owning shard, merges the per-shard decision logs into one globally
// seq-numbered stream, and aggregates status and metrics with per-shard
// labels.
//
// Sharding by home region is exact, not approximate: a shard schedules
// its jobs over its own regions only, so within each partition the fleet
// is decision-for-decision identical to a dedicated single server (or the
// offline cluster.Run) over that partition — the acceptance test in
// fleet_test.go proves it. The trade is that geo-shifting is confined to
// the partition: operators group regions so the moves that matter stay
// intra-shard (e.g. one shard per continent), and a 1-shard fleet is
// exactly the old single server.
//
// The merged decision stream is ordered by (round, shard, shard-seq)
// under a round watermark: a decision is emitted only once every shard's
// round clock has passed its round (a drained shard's clock counts as
// infinite), so the interleaving is deterministic no matter how far the
// shards' accelerated clocks diverge while rounds were running. Global
// sequence numbers are dense — gap-free — by construction; shard-ring
// evictions that outrun the merge are counted and surfaced as Lost rather
// than silently renumbered.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/feed"
	"waterwise/internal/footprint"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/transfer"
	"waterwise/internal/tsdb"
)

// Config parameterizes the fleet.
type Config struct {
	// Env is the shared environment; each shard sees a partition view of
	// it, never a reseeded copy.
	Env *region.Environment
	// Net and FP are shared across shards (both stateless; defaulted like
	// server.Config).
	Net *transfer.Model
	FP  *footprint.Model
	// NewScheduler builds the scheduler for one shard. Schedulers are
	// stateful and single-threaded by the cluster.Scheduler contract, so
	// every shard needs its own instance.
	NewScheduler func(shard int, regions []region.ID) (cluster.Scheduler, error)
	// Shards is the shard count (default 1; at most the region count).
	Shards int
	// ShardMap pins regions to shards (region → shard index in
	// [0, Shards)). Regions absent from the map are dealt to the emptiest
	// shard in environment order; every shard must end up owning at least
	// one region. A nil map deals all regions that way, which balances
	// them round-robin.
	ShardMap map[region.ID]int
	// Tolerance, Round, and TimeScale are shared by every shard, keeping
	// the shard round clocks aligned (all fire at Env.Start + k*Round).
	Tolerance float64
	Round     time.Duration
	TimeScale float64
	// QueueCap bounds each shard's ingest queue (server.Config.QueueCap).
	QueueCap int
	// DecisionLogCap bounds the merged decision ring; it is also each
	// shard's local ring capacity (default 65536).
	DecisionLogCap int
	// DataDir enables durable shard state: each shard keeps its write-ahead
	// log and snapshots under DataDir/shard-<i>, and New recovers every
	// shard from its directory before serving. Empty disables durability.
	DataDir string
	// SnapshotEvery is each shard's snapshot cadence in rounds
	// (server.Config.SnapshotEvery; 0 means the server default).
	SnapshotEvery int
	// SyncInterval is each shard's WAL group-commit bound
	// (server.Config.SyncInterval; 0 means the server default). The
	// scenario harness tightens it so accelerated runs sync every round.
	SyncInterval time.Duration
	// WALSyncDelay is handed to every shard's write-ahead log as its fsync
	// latency hook (server.Config.WALSyncDelay) — the scenario harness's
	// slow-disk fault. Nil adds nothing; ignored without DataDir.
	WALSyncDelay func() time.Duration
	// Supervisor enables the fleet watchdog: a goroutine that detects dead
	// shards (killed, crashed, or round-loop failures) and drives
	// RestartShard with capped exponential backoff. Nil disables
	// supervision — shards stay dead until RestartShard is called
	// externally, the pre-supervisor behavior.
	Supervisor *SupervisorConfig
	// Record configures a fleet-level metrics flight recorder
	// (server.RecordConfig): the merged gateway exposition — per-shard
	// series, fleet histograms, merge counters — is self-scraped on the
	// shards' round clock into one TSDB serving /v1/query and /v1/alerts
	// on the gateway. Shards never record individually; the fleet view is
	// the one operators query.
	Record server.RecordConfig
}

// Decision is one merged placement: a shard's decision re-stamped with
// the fleet-wide sequence number. Seq (in the embedded server.Decision)
// carries the global stream position; ShardSeq preserves the shard-local
// number the merge consumed.
type Decision struct {
	server.Decision
	Shard    int    `json:"shard"`
	ShardSeq uint64 `json:"shard_seq"`
}

// ShardStatus is one shard's snapshot plus its identity in the fleet.
type ShardStatus struct {
	Shard   int         `json:"shard"`
	Regions []region.ID `json:"regions"`
	server.Status
}

// Status aggregates the fleet: summed counters, the union of per-region
// free servers, and every shard's own snapshot.
type Status struct {
	Shards    int     `json:"shards"`
	Scheduler string  `json:"scheduler"`
	Round     string  `json:"round"`
	TimeScale float64 `json:"time_scale"`
	Pending   int     `json:"pending"`
	Future    int     `json:"future"`
	QueueCap  int     `json:"queue_cap"`
	Accepted  uint64  `json:"accepted"`
	Rejected  uint64  `json:"rejected"`
	Rounds    uint64  `json:"rounds"`
	Decisions uint64  `json:"decisions"`
	// Merged counts decisions emitted into the global stream; it trails
	// Decisions until the next merge pull catches up.
	Merged uint64 `json:"merged"`
	// Lost counts decisions evicted from a shard's ring before the merge
	// read them (log gap — a sizing failure; see DESIGN.md).
	Lost        uint64            `json:"lost"`
	Unscheduled int               `json:"unscheduled"`
	Free        map[region.ID]int `json:"free"`
	// Obs digests the fleet-merged observability histograms — every
	// shard's decision latency and round timings summed into one
	// distribution (per-shard digests sit in each ShardStatus).
	Obs *server.ObsSummary `json:"obs,omitempty"`
	// Feed reports the one environment feed every shard reads (shards
	// share the provider through their partition views, so there is a
	// single health record fleet-wide).
	Feed *feed.Health `json:"feed,omitempty"`
	// Supervisor reports the watchdog's view of every shard — restart
	// counts, strike counts, backoff state. Nil when supervision is off.
	Supervisor  *SupervisorStatus `json:"supervisor,omitempty"`
	Err         string            `json:"err,omitempty"`
	ShardStatus []ShardStatus     `json:"shard_status"`
}

// Fleet runs N scheduler shards behind one gateway. Construct with New,
// start the shard round loops with Start, attach the HTTP API via
// Handler, and stop with Stop.
type Fleet struct {
	cfg    Config
	shards []*server.Server
	parts  [][]region.ID
	owner  map[region.ID]int

	mu      sync.Mutex
	autoID  int
	started bool
	// dead marks shards taken down by KillShard; the gateway buffers their
	// submissions (bounded by bufCap) until RestartShard re-routes them.
	dead     []bool
	buffered [][]server.JobSpec
	bufCap   int
	// k-way merge state: the per-shard local-seq cursor, decisions fetched
	// but not yet past the watermark, and the merged global log — the
	// same ring type each shard keeps its own decisions in.
	cursors []uint64
	staged  [][]server.Decision
	merged  server.Ring[Decision]
	seq     uint64
	lost    uint64

	// ingest records the gateway's POST /v1/jobs wall time (jobs enter
	// the fleet here, not through shard HTTP, so the gateway owns the
	// ingest histogram).
	ingest obs.Histogram

	// sup is the watchdog (nil when Config.Supervisor is nil); its
	// per-shard slices are guarded by mu like dead and buffered.
	sup *supervisor

	// recorder is the fleet-level metrics flight recorder (nil unless
	// Config.Record.Enable). Immutable after New; shard round hooks and
	// the gateway handlers read it without f.mu.
	recorder *tsdb.Recorder
}

// partition assigns every region of env to a shard: pinned regions first,
// the rest dealt to the emptiest shard in environment order.
func partition(env *region.Environment, shards int, pin map[region.ID]int) ([][]region.ID, error) {
	ids := env.IDs()
	if shards > len(ids) {
		return nil, fmt.Errorf("fleet: %d shards over %d regions leaves empty shards", shards, len(ids))
	}
	for id, s := range pin {
		if env.Region(id) == nil {
			return nil, fmt.Errorf("fleet: shard map names unknown region %q", id)
		}
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("fleet: shard map sends region %q to shard %d of %d", id, s, shards)
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
			return nil, fmt.Errorf("fleet: shard map leaves shard %d with no regions", s)
		}
	}
	return parts, nil
}

// New validates cfg, partitions the environment, and builds one stopped
// server per shard; call Start to begin scheduling rounds.
func New(cfg Config) (*Fleet, error) {
	if cfg.Env == nil {
		return nil, errors.New("fleet: nil environment")
	}
	if cfg.NewScheduler == nil {
		return nil, errors.New("fleet: nil scheduler factory")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.DecisionLogCap <= 0 {
		cfg.DecisionLogCap = 65536
	}
	parts, err := partition(cfg.Env, cfg.Shards, cfg.ShardMap)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      cfg,
		parts:    parts,
		owner:    make(map[region.ID]int, len(cfg.Env.Regions)),
		shards:   make([]*server.Server, cfg.Shards),
		dead:     make([]bool, cfg.Shards),
		buffered: make([][]server.JobSpec, cfg.Shards),
		bufCap:   cfg.QueueCap,
		cursors:  make([]uint64, cfg.Shards),
		staged:   make([][]server.Decision, cfg.Shards),
		merged:   server.NewRing[Decision](cfg.DecisionLogCap),
	}
	if f.bufCap <= 0 {
		f.bufCap = 65536
	}
	if cfg.Supervisor != nil {
		f.sup = newSupervisor(*cfg.Supervisor, cfg.Shards)
	}
	for s, p := range parts {
		for _, id := range p {
			f.owner[id] = s
		}
		srv, err := f.buildShard(s)
		if err != nil {
			return nil, err
		}
		f.shards[s] = srv
		// A recovered shard already owns ids up to its next auto id; the
		// fleet-wide counter must never re-mint one of them.
		if n := srv.NextAutoID(); n > f.autoID {
			f.autoID = n
		}
	}
	if cfg.Record.Enable {
		if f.recorder, err = cfg.Record.NewRecorder(f.MetricsText); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	return f, nil
}

// Recorder exposes the fleet-level flight recorder; nil when recording is
// disabled.
func (f *Fleet) Recorder() *tsdb.Recorder { return f.recorder }

// Handler returns the gateway's HTTP API: the routes a single server
// exposes (server.NewMux), fleet-wide — submits routed to the shard
// owning the job's home region, the globally seq-numbered merged decision
// log, aggregate + per-shard status, shard-labeled metrics, round and job
// traces from any shard, and the fleet recorder's queries and alerts.
func (f *Fleet) Handler() http.Handler {
	return server.NewMux(server.Backend{
		Submit: f.Submit,
		Decisions: func(since uint64, limit int) (interface{}, uint64) {
			ds := f.Decisions(since, limit)
			return ds, server.NextCursor(since, ds)
		},
		Status:        func() interface{} { return f.Status() },
		MetricsText:   f.MetricsText,
		SlowestRounds: f.SlowestRounds,
		RecentRounds:  f.RecentRounds,
		JobTrace:      f.JobTrace,
		Recorder:      f.Recorder,
		Ingest:        &f.ingest,
	})
}

// onShardRound is every shard's end-of-round hook. Each shard reports its
// own completed-round count; Observe keeps the maximum, so the recorder's
// clock is the fleet's progress clock (the same max-shard-rounds measure
// the scenario harness polls). Runs on the shard's round-loop goroutine
// with the shard's lock released.
func (f *Fleet) onShardRound(rounds uint64) {
	if f.recorder != nil {
		f.recorder.Observe(rounds)
	}
}

// buildShard constructs (or, when Config.DataDir is set, recovers) the
// server for one shard.
func (f *Fleet) buildShard(s int) (*server.Server, error) {
	sched, err := f.cfg.NewScheduler(s, f.parts[s])
	if err != nil {
		return nil, fmt.Errorf("fleet: building shard %d scheduler: %w", s, err)
	}
	var dir string
	if f.cfg.DataDir != "" {
		dir = filepath.Join(f.cfg.DataDir, fmt.Sprintf("shard-%d", s))
	}
	srv, err := server.New(server.Config{
		Env: f.cfg.Env, Regions: f.parts[s], Net: f.cfg.Net, FP: f.cfg.FP,
		Scheduler: sched, Tolerance: f.cfg.Tolerance,
		Round: f.cfg.Round, TimeScale: f.cfg.TimeScale,
		QueueCap: f.cfg.QueueCap, DecisionLogCap: f.cfg.DecisionLogCap,
		DataDir: dir, SnapshotEvery: f.cfg.SnapshotEvery,
		SyncInterval: f.cfg.SyncInterval, WALSyncDelay: f.cfg.WALSyncDelay,
		OnRound: f.onShardRound,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: building shard %d: %w", s, err)
	}
	return srv, nil
}

// Shards reports the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Partitions returns each shard's region partition (copies).
func (f *Fleet) Partitions() [][]region.ID {
	out := make([][]region.ID, len(f.parts))
	for s, p := range f.parts {
		out[s] = append([]region.ID(nil), p...)
	}
	return out
}

// Owner reports which shard owns a region.
func (f *Fleet) Owner(id region.ID) (int, bool) {
	s, ok := f.owner[id]
	return s, ok
}

// Shard exposes one shard's server (the scenario harness's fault
// injection and tests reach through this; serving goes via the gateway).
func (f *Fleet) Shard(i int) *server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i]
}

// shardList snapshots the shard slice so iterating methods tolerate a
// concurrent RestartShard swapping a pointer.
func (f *Fleet) shardList() []*server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*server.Server(nil), f.shards...)
}

// Submit routes one job to the shard owning its home region. Ids are
// assigned fleet-wide when the spec carries none, so the merged decision
// log never sees two shards mint the same id; client-assigned ids must be
// unique per home shard (globally unique ids satisfy that trivially).
//
// A submission for a dead shard (see KillShard) is accepted and buffered
// at the gateway — bounded by the queue cap, overflow is ErrQueueFull —
// and re-routed to the shard when RestartShard brings it back. The
// shard's durable dedupe index makes the re-route idempotent, so a
// client retrying the same id during the outage is safe.
func (f *Fleet) Submit(spec server.JobSpec) (int, error) {
	shard, ok := f.owner[spec.Home]
	if !ok {
		return 0, fmt.Errorf("%w: %q", server.ErrUnknownRegion, spec.Home)
	}
	f.mu.Lock()
	if spec.ID == nil {
		id := f.autoID
		spec.ID = &id
	}
	if *spec.ID >= f.autoID {
		f.autoID = *spec.ID + 1
	}
	if f.dead[shard] {
		id, err := f.bufferLocked(shard, spec)
		f.mu.Unlock()
		return id, err
	}
	srv := f.shards[shard]
	f.mu.Unlock()
	id, err := srv.Submit(spec)
	if errors.Is(err, server.ErrStopped) {
		// The shard died between the route decision and the submit (or was
		// crashed directly). Buffer if the fleet knows it is dead; a
		// deliberately stopped shard keeps the error.
		f.mu.Lock()
		if f.dead[shard] {
			id, err = f.bufferLocked(shard, spec)
		}
		f.mu.Unlock()
	}
	return id, err
}

// bufferLocked parks one spec for a dead shard. Called with f.mu held.
func (f *Fleet) bufferLocked(shard int, spec server.JobSpec) (int, error) {
	if len(f.buffered[shard]) >= f.bufCap {
		return 0, server.ErrQueueFull
	}
	f.buffered[shard] = append(f.buffered[shard], spec)
	return *spec.ID, nil
}

// KillShard crash-stops one shard the way a SIGKILL would: the round
// loop halts and the shard's WAL drops its unsynced buffer, with no
// final snapshot. The gateway marks the shard dead and buffers its
// submissions until RestartShard. Idempotent.
func (f *Fleet) KillShard(i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	f.mu.Lock()
	if f.dead[i] {
		f.mu.Unlock()
		return nil
	}
	f.dead[i] = true
	srv := f.shards[i]
	f.mu.Unlock()
	srv.Crash()
	return nil
}

// RestartShard rebuilds a killed shard from its data directory —
// recovering the latest snapshot and replaying the log tail — flushes
// the submissions the gateway buffered while it was down, and rejoins it
// to the fleet (starting its round loop if the fleet is started). The
// merge cursor is untouched: the recovered decision ring carries the
// same shard-local sequence numbers, so the global stream continues
// without a gap or renumbering.
func (f *Fleet) RestartShard(i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	f.mu.Lock()
	if !f.dead[i] {
		f.mu.Unlock()
		return fmt.Errorf("fleet: shard %d is not dead", i)
	}
	srv, err := f.buildShard(i)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.shards[i] = srv
	f.dead[i] = false
	if n := srv.NextAutoID(); n > f.autoID {
		f.autoID = n
	}
	pend := f.buffered[i]
	f.buffered[i] = nil
	started := f.started
	f.mu.Unlock()
	var firstErr error
	for _, spec := range pend {
		if _, err := srv.Submit(spec); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: re-routing buffered job to shard %d: %w", i, err)
		}
	}
	if started {
		srv.Start()
	}
	return firstErr
}

// eachShard runs fn on every shard concurrently — a shard mid-drain must
// not delay the others — and waits for all of them.
func (f *Fleet) eachShard(fn func(i int, s *server.Server)) {
	var wg sync.WaitGroup
	for i, s := range f.shardList() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, s)
		}()
	}
	wg.Wait()
}

// Start launches every shard's round loop (and the supervisor, when
// configured).
func (f *Fleet) Start() {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	for _, s := range f.shardList() {
		s.Start()
	}
	f.startSupervisor()
}

// Stop halts the supervisor first (so the deliberate shutdown below is
// not mistaken for a fleet-wide crash and "repaired"), then every shard
// (concurrently — a shard mid-drain must not delay the others'
// shutdown), then pulls the final decisions into the merged log.
// Idempotent.
func (f *Fleet) Stop() {
	f.stopSupervisor()
	f.eachShard(func(_ int, s *server.Server) { s.Stop() })
	f.mu.Lock()
	f.mergeLocked()
	f.mu.Unlock()
	if f.recorder != nil {
		// All round loops are down, so no more Observe calls arrive; Close
		// drains the async scraper. The store stays queryable after Stop.
		f.recorder.Close()
	}
}

// Drain blocks until every shard's queue and pending set are empty, a
// shard's round loop fails, or the context expires, then merges the
// settled logs. With all shards drained the merged stream is total: every
// decision emitted, fully (round, shard, shard-seq)-ordered.
func (f *Fleet) Drain(ctx context.Context) error {
	errs := make([]error, f.cfg.Shards)
	f.eachShard(func(i int, s *server.Server) { errs[i] = s.Drain(ctx) })
	f.mu.Lock()
	f.mergeLocked()
	f.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Err reports the first shard round-loop failure, if any.
func (f *Fleet) Err() error {
	for _, s := range f.shardList() {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Result merges every shard's accounting into one cluster.Result, as if a
// single simulator had executed the whole trace. Call after Stop or Drain
// for a settled view.
func (f *Fleet) Result() (*cluster.Result, error) {
	shards := f.shardList()
	parts := make([]*cluster.Result, len(shards))
	for i, s := range shards {
		parts[i] = s.Result()
	}
	return cluster.MergeResults(parts...)
}

// mergeLocked advances the k-way merge: pull new decisions from every
// shard, then emit into the global ring — in (round, shard, shard-seq)
// order — every staged decision whose round is final fleet-wide. A round
// is final once each shard's frontier has passed it; a drained shard's
// frontier counts as infinite (it cannot decide anything at a round it
// has already slept through unless new work arrives, in which case those
// decisions join the stream late but the global seq stays dense). Called
// with f.mu held; takes each shard's own lock via DecisionsPage.
func (f *Fleet) mergeLocked() {
	var watermark time.Time
	unbounded := true
	for i, s := range f.shards {
		page, cur := s.DecisionsPage(f.cursors[i], 0)
		if len(page) > 0 {
			if first := page[0].Seq; first > f.cursors[i]+1 {
				// The shard ring evicted decisions before we read them:
				// count the gap instead of silently renumbering over it.
				f.lost += first - f.cursors[i] - 1
			}
			f.cursors[i] = page[len(page)-1].Seq
			f.staged[i] = append(f.staged[i], page...)
		}
		if !cur.Idle {
			if unbounded || cur.Frontier.Before(watermark) {
				watermark = cur.Frontier
				unbounded = false
			}
		}
	}
	for {
		best := -1
		for i := range f.staged {
			if len(f.staged[i]) == 0 {
				continue
			}
			h := &f.staged[i][0]
			if !unbounded && h.Round.After(watermark) {
				continue
			}
			if best == -1 || h.Round.Before(f.staged[best][0].Round) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		d := f.staged[best][0]
		f.staged[best] = f.staged[best][1:]
		if len(f.staged[best]) == 0 {
			f.staged[best] = nil // release the drained backing array
		}
		f.seq++
		md := Decision{Decision: d, Shard: best, ShardSeq: d.Seq}
		md.Decision.Seq = f.seq
		f.merged.Append(md)
	}
}

// Decisions returns up to limit merged decisions with global Seq > since,
// oldest first (limit <= 0 means all), pulling any newly final shard
// decisions into the stream first. The merged log is a bounded ring like
// each shard's own.
func (f *Fleet) Decisions(since uint64, limit int) []Decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mergeLocked()
	return f.merged.Page(since, limit)
}

// Status aggregates every shard's snapshot.
func (f *Fleet) Status() Status {
	shards := f.shardList()
	st := Status{
		Shards:      len(shards),
		Free:        make(map[region.ID]int),
		ShardStatus: make([]ShardStatus, len(shards)),
	}
	// Merge before reading the shard counters: a decision logged between
	// the two reads then shows up in Decisions but not yet in Merged,
	// keeping the documented Merged <= Decisions invariant (monitors
	// compute the backlog as their difference).
	f.mu.Lock()
	f.mergeLocked()
	st.Merged = f.seq
	st.Lost = f.lost
	st.Supervisor = f.supervisorStatusLocked()
	f.mu.Unlock()
	for i, s := range shards {
		ss := s.Status()
		st.ShardStatus[i] = ShardStatus{Shard: i, Regions: append([]region.ID(nil), f.parts[i]...), Status: ss}
		st.Pending += ss.Pending
		st.Future += ss.Future
		st.QueueCap += ss.QueueCap
		st.Accepted += ss.Accepted
		st.Rejected += ss.Rejected
		st.Rounds += ss.Rounds
		st.Decisions += ss.Decisions
		st.Unscheduled += ss.Unscheduled
		for id, n := range ss.Free {
			st.Free[id] = n
		}
		if st.Err == "" {
			st.Err = ss.Err
		}
	}
	st.Scheduler = st.ShardStatus[0].Scheduler
	st.Round = st.ShardStatus[0].Round
	st.TimeScale = st.ShardStatus[0].TimeScale
	st.Obs = f.ObsSnapshots().Summary(shards[0].JobSampleEvery())
	if prov := f.cfg.Env.Provider(); prov != nil {
		h := feed.HealthOf(prov)
		st.Feed = &h
	}
	return st
}
