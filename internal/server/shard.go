package server

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/milp"
	"waterwise/internal/obs"
	"waterwise/internal/trace"
	"waterwise/internal/units"
	"waterwise/internal/wal"
	"waterwise/internal/workload"
)

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

// shard is one scheduling engine: the state machine behind a partition of
// the service's regions. It owns an ingest queue, a cluster.Sim and its
// scheduler, a round loop, a decision ring and (with a data directory) a
// write-ahead log. The Server routes submissions to it and merges its
// decision log with its siblings'.
type shard struct {
	// id is the shard's index; cfg is the service config with Env narrowed
	// to the shard's partition, Scheduler set to the shard's own instance
	// and DataDir to the shard's directory.
	id  int
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
	// rejection + idempotent retry); autoID is the floor above every id the
	// shard has seen, which the service's id counter never re-mints.
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
	obs *shardObs
	// onRound, when non-nil, runs after each round with the completed-rounds
	// count and mu released: the service's recorder clock.
	onRound func(rounds uint64)

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

	started  bool
	stopped  bool
	stopCh   chan struct{}
	loopDone chan struct{}
	runErr   error

	// wallStart anchors the paced clock: simulated time advances TimeScale
	// seconds per wall second from Env.Start at wallStart.
	wallStart time.Time
}

// newShard builds shard id over cfg (defaults applied, Env already the
// partition view) and, when cfg.DataDir is set, recovers the directory's
// state before returning. The round loop starts with Start.
func newShard(id int, cfg Config, onRound func(uint64)) (*shard, error) {
	sim, err := cluster.NewSim(cluster.Config{
		Env: cfg.Env, Net: cfg.Net, FP: cfg.FP,
		Tick: cfg.Round, Tolerance: cfg.Tolerance,
	}, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	s := &shard{
		id:         id,
		cfg:        cfg,
		sim:        sim,
		simNow:     cfg.Env.Start,
		live:       make(map[int]liveJob),
		decidedIdx: make(map[int]uint64),
		decisions:  NewRing[Decision](cfg.DecisionLogCap),
		obs:        newShardObs(),
		onRound:    onRound,
		stopCh:     make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// simAt maps a wall instant to the paced simulated clock. Accelerated mode
// has no wall mapping; it reports the round clock instead.
func (s *shard) simAt(wall time.Time) time.Time {
	if s.cfg.TimeScale == 0 || s.wallStart.IsZero() {
		return s.simNow
	}
	return s.cfg.Env.Start.Add(time.Duration(float64(wall.Sub(s.wallStart)) * s.cfg.TimeScale))
}

// Submit accepts one job (the service has assigned its id) into the ingest
// queue. Re-submits are idempotent: an id whose spec digest matches what
// this shard already accepted (still queued or already decided, up to
// dedupeCap history) is acknowledged again with no new job. The same id
// with a different spec is ErrDuplicateID.
func (s *shard) Submit(spec JobSpec) (int, error) {
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
	if len(s.future)+s.sim.Pending() >= s.cfg.QueueCap {
		s.rejected++
		return 0, ErrQueueFull
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
func (s *shard) admitLocked(job *trace.Job, digest uint64, accepted time.Time) {
	if job.ID >= s.autoID {
		s.autoID = job.ID + 1
	}
	s.live[job.ID] = liveJob{digest: digest, accepted: accepted}
	heap.Push(&s.future, job)
	s.accepted++
}

// buildJob converts a spec into a trace job, defaulting estimates to the
// benchmark profile and actuals to the estimates.
func (s *shard) buildJob(spec JobSpec) (*trace.Job, error) {
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
func (s *shard) Start() {
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

// halt is the handshake Stop and Crash share: mark the shard stopped,
// wake the round loop, wait for it to exit. It reports whether this call
// did the halting; a repeat only waits.
func (s *shard) halt() bool {
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
func (s *shard) Stop() {
	if !s.halt() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Everything still queued — pending rounds and not-yet-due arrivals —
	// is abandoned into the result's Unscheduled list.
	for len(s.future) > 0 {
		j := heap.Pop(&s.future).(*trace.Job)
		s.sim.Submit(j, s.simNow)
	}
	s.abandonLocked()
	if s.wlog != nil {
		// Seal the shutdown: a final snapshot makes the next start replay
		// zero records (the clean-shutdown fast path). A crashed shard
		// never gets here — halt reports the repeat — so a crash is not
		// retroactively tidied.
		_ = s.snapshotLocked()
		_ = s.wlog.Close()
	}
}

// abandonLocked abandons every pending job, releasing their ids and
// updating the unscheduled counter. Called with mu held.
func (s *shard) abandonLocked() {
	for _, j := range s.sim.Abandon() {
		delete(s.live, j.ID)
		s.unscheduled++
	}
}

// Drain blocks until the ingest queue and pending set are empty (the
// accelerated replay's "trace fully scheduled" condition), the round loop
// fails, or the context expires.
func (s *shard) Drain(ctx context.Context) error {
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

// Result returns the shard's accumulated accounting.
func (s *shard) Result() *cluster.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim.Result()
}

// Stopped reports whether the shard has halted — by Stop, by Crash, or
// by a round-loop failure (Status.Err). The supervisor's health probe: a
// shard that reports stopped without the service having stopped it is
// dead and a restart candidate.
func (s *shard) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped || s.runErr != nil
}

// setQueueCap changes the ingest queue capacity; see Server.SetQueueCap.
func (s *shard) setQueueCap(n int) {
	s.mu.Lock()
	s.cfg.QueueCap = n
	s.mu.Unlock()
}

// Cursor is an atomic snapshot of a decision log's progress, taken
// together with a page of it so a merging consumer — the service
// interleaving its shards' logs — can reason about what it has and has
// not seen.
type Cursor struct {
	// Seq is the latest sequence number assigned (0 before any decision).
	Seq uint64 `json:"seq"`
	// Oldest is the sequence number of the oldest entry still in the ring
	// (0 while the log is empty). A reader whose cursor has fallen below
	// Oldest-1 has lost decisions to ring eviction.
	Oldest uint64 `json:"oldest"`
	// Frontier is the round clock: every decision of rounds at or before
	// Frontier is already in the log, and later reads only ever append
	// decisions of strictly later rounds. Before the first round it lies
	// strictly before every possible decision round.
	Frontier time.Time `json:"frontier"`
	// Idle reports a fully drained log: nothing queued, nothing pending, so
	// no decision exists beyond Seq until new work arrives.
	Idle bool `json:"idle"`
}

// DecisionsPage returns up to limit logged decisions with Seq > since,
// oldest first (limit <= 0 means all), and the log cursor, snapshotted
// atomically — the export the service's k-way merge is built on.
func (s *shard) DecisionsPage(since uint64, limit int) ([]Decision, Cursor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Group commit on read: every decision this call returns is on disk
	// before it leaves the shard, so a served decision can never be lost
	// to a crash — the invariant the restart equivalence rests on.
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

// Status returns a point-in-time snapshot of the shard.
func (s *shard) Status() ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStatus{
		Shard:       s.id,
		Regions:     s.cfg.Env.IDs(),
		SimNow:      s.simNow,
		Pending:     s.sim.Pending(),
		Future:      len(s.future),
		QueueCap:    s.cfg.QueueCap,
		Accepted:    s.accepted,
		Rejected:    s.rejected,
		Rounds:      s.rounds,
		Decisions:   s.decided,
		LastSeq:     s.decSeq,
		Unscheduled: s.unscheduled,
		Free:        s.sim.Free(s.simNow),
		Obs:         s.obsSnapshots().summary(s.obs.jobs.SampleEvery()),
		WAL:         s.walStatusLocked(),
	}
	if ss, ok := s.cfg.Scheduler.(solverStatser); ok {
		stats := ss.SolverStats()
		st.Solver = &stats
	}
	if s.runErr != nil {
		st.Err = s.runErr.Error()
	}
	return st
}

// run is the round loop. Accelerated mode steps rounds back to back,
// fast-forwarding over idle gaps and parking on the condition variable when
// the queue is empty; paced mode fires rounds on a wall timer.
func (s *shard) run() {
	defer close(s.loopDone)
	if s.cfg.TimeScale == 0 {
		s.runAccelerated()
		return
	}
	s.runPaced()
}

func (s *shard) runAccelerated() {
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
		// bounds their latency to about one round. The round hook runs in
		// this gap — the recorder's gather path re-enters Status, which
		// needs mu.
		s.mu.Unlock()
		s.notifyRound(rounds)
		s.mu.Lock()
	}
}

func (s *shard) runPaced() {
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

// notifyRound runs the end-of-round hook. Called by the round loops with
// mu released: the recorder's gather path re-enters Status, and holding
// mu here would deadlock (and would bill scrape time to the scheduling
// lock).
func (s *shard) notifyRound(rounds uint64) {
	if s.onRound != nil {
		s.onRound(rounds)
	}
}

// nextRoundLocked picks the next round index to run in accelerated mode:
// the very next round while jobs are pending (deferred jobs are re-offered
// every round, as offline), otherwise the round aligned at or after the
// earliest queued arrival. No work → no round.
func (s *shard) nextRoundLocked() (int64, bool) {
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
func (s *shard) roundLocked() {
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
func (s *shard) ingestDueLocked(k int64, wall time.Time) time.Time {
	now := s.cfg.Env.Start.Add(time.Duration(k) * s.cfg.Round)
	s.nextK, s.simNow = k+1, now
	for len(s.future) > 0 && !s.future[0].Submit.After(now) {
		job := heap.Pop(&s.future).(*trace.Job)
		s.sim.Submit(job, now)
		s.obs.jobs.Batched(job.ID, k, now, wall)
	}
	return now
}

// stepLocked is the second half of a round and the only place a shard
// steps its simulator: schedule the pending set at the round clock, then
// publish each outcome as the next decision (seq, dedupe index, ring,
// s.roundDecs). Live rounds pass a nil logged; replay passes the round
// record's decisions, which the step must re-derive exactly (the log is
// determinism's checksum) and which are published in place of their
// twins, so DecidedWall survives a restart. Returns the commit instant
// and the solve time. Called with mu held.
func (s *shard) stepLocked(k int64, logged []Decision) (wall time.Time, solve time.Duration, err error) {
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
