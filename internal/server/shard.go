package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transport"
	"waterwise/internal/units"
	"waterwise/internal/wal"
	"waterwise/internal/wire"
	"waterwise/internal/workload"
)

// solverStatser is implemented by schedulers that expose their round
// solver's accounting (core.Scheduler).
type solverStatser interface{ SolverStats() transport.Stats }

// shard is one scheduling engine: the state machine behind a partition of
// the service's regions. It owns an ingest queue, a cluster.Sim and its
// scheduler, a round loop, a decision ring and (with a data directory) a
// write-ahead log. The Server routes submissions to it and merges its
// decision log with its siblings'.
type shard struct {
	// id is the shard's index; cfg is the service config with Env narrowed
	// to the shard's partition, Scheduler set to the shard's own instance
	// and DataDir to the shard's directory. regions is the partition in
	// Env.IDs() order, which decision records index.
	id      int
	cfg     Config
	regions []region.ID

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
	future ingestQueue
	// dedupe is the idempotency index, keyed by job id: live jobs (accepted,
	// not yet decided) for duplicate rejection and idempotent retry, and
	// decided jobs' digests, bounded FIFO via decidedFIFO, so a client
	// retrying an already-placed submission gets its original id back
	// instead of ErrDuplicateID. epoch is the instant acceptances are
	// stamped from. autoID is the floor above every id the shard has seen,
	// which the service's id counter never re-mints.
	dedupe      map[int]dedupeEntry
	decidedFIFO []int
	epoch       time.Time
	autoID      int

	decisions Ring[decRecord] // capacity DecisionLogCap
	decSeq    uint64
	roundDecs []decRecord // the round in flight's decisions; reused

	accepted, rejected, rounds, decided uint64
	deduped                             uint64
	unscheduled                         int
	overheadSum                         time.Duration

	// obs is the observability layer: always on, measurement only.
	obs *shardObs
	// onRound runs after each round with the shard's id, its
	// completed-rounds count and mu released: the service's recorder clock
	// and Config.OnRound. onDown runs once the shard has died — by Crash
	// or by a failed round loop — with mu released: the failover hook.
	onRound func(shard int, rounds uint64)
	onDown  func(*shard)
	inHook  bool // onRound is running: Drain waits for it

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

	started bool
	stopped bool
	// crashed marks a halt by Crash: the shard is dead, not stopped.
	crashed  bool
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
func newShard(id int, cfg Config, onRound func(int, uint64), onDown func(*shard)) (*shard, error) {
	sim, err := cluster.NewSim(cluster.Config{
		Env: cfg.Env, Net: cfg.Net, FP: cfg.FP,
		Tick: cfg.Round, Tolerance: cfg.Tolerance,
	}, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	regions := cfg.Env.IDs()
	if len(regions) > math.MaxUint16 || id > math.MaxUint16 {
		return nil, fmt.Errorf("server: shard %d of %d regions: decision records index at most %d", id, len(regions), math.MaxUint16)
	}
	s := &shard{
		id:        id,
		cfg:       cfg,
		regions:   regions,
		sim:       sim,
		simNow:    cfg.Env.Start,
		dedupe:    make(map[int]dedupeEntry),
		epoch:     time.Now(),
		decisions: NewRing[decRecord](cfg.DecisionLogCap),
		obs:       newShardObs(),
		onRound:   onRound,
		onDown:    onDown,
		stopCh:    make(chan struct{}),
		loopDone:  make(chan struct{}),
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

// admit is a shard's half of Server.submitFrame: it admits the entries of
// out routed to this shard (out[i].sh == s, id already assigned), in
// frame order, under one lock acquisition and with one wake of the round
// loop. Jobs are built and digested before the lock is taken. Each entry's
// outcome lands in out[i].Err and its routing is cleared, so the caller
// sees which entries are done. With prefix, admission stops at the first
// rejection and admit returns its index in out; otherwise it returns -1.
func (s *shard) admit(specs []JobSpec, out []Admission, prefix bool) int {
	stop, end := -1, len(specs)
	for i := range specs {
		a := &out[i]
		if a.sh != s {
			continue
		}
		if a.job, a.Err = s.buildJob(specs[i]); a.Err != nil {
			if prefix {
				stop, end = i, i
				break
			}
			continue
		}
		a.job.ID = a.ID
		spec := specs[i]
		spec.ID = &a.ID // the digest covers the assigned id
		a.digest = specDigest(spec)
	}
	woke := false
	s.mu.Lock()
	now := time.Now() // after the lock wait: a paced stamp must not predate the round clock
	for i := 0; i < end; i++ {
		a := &out[i]
		if a.sh != s || a.job == nil {
			continue
		}
		if a.Err = s.acceptLocked(a.job, a.digest, now); a.Err == nil {
			woke = true
		} else if prefix {
			stop = i
			break
		}
	}
	if woke {
		s.cond.Broadcast() // wake an idle accelerated loop
	}
	s.mu.Unlock()
	for i := range out {
		if out[i].sh == s {
			out[i].sh, out[i].job = nil, nil
		}
	}
	return stop
}

// acceptLocked runs the admission checks for one built job and, if it
// passes, commits it: the shard must be up and not stopped, the id new or
// an idempotent re-submit, the queue below QueueCap and the submit instant
// inside the horizon; then the job is written ahead (group-committed by
// the next round, the SyncInterval, or a read) and traced. Re-submits are
// idempotent: an id whose spec digest matches what this shard already
// accepted (still queued or already decided, up to dedupeCap history) is
// acknowledged again with no new job; the same id with a different spec
// is ErrDuplicateID. A dead shard refuses with ErrShardDown. now stamps
// the acceptance. Called with mu held.
func (s *shard) acceptLocked(job *trace.Job, digest uint64, now time.Time) error {
	if err := s.downErrLocked(); err != nil {
		s.rejected++
		return err
	}
	if s.stopped {
		s.rejected++
		return ErrStopped
	}
	if dup, err := s.dedupeLocked(job.ID, digest); err != nil {
		s.rejected++
		return err
	} else if dup {
		s.deduped++
		return nil
	}
	if s.future.Len()+s.sim.Pending() >= s.cfg.QueueCap {
		s.rejected++
		return ErrQueueFull
	}
	if job.Submit.IsZero() {
		job.Submit = s.simAt(now)
		if job.Submit.Before(s.cfg.Env.Start) {
			job.Submit = s.cfg.Env.Start
		}
	}
	if job.Submit.Before(s.cfg.Env.Start) || !job.Submit.Before(s.cfg.Env.End()) {
		s.rejected++
		return fmt.Errorf("%w: %v not in [%v, %v)",
			ErrOutsideHorizon, job.Submit, s.cfg.Env.Start, s.cfg.Env.End())
	}
	if s.wlog != nil {
		// Write-ahead: the acceptance is logged before it is acknowledged,
		// and group-committed by the next round or the SyncInterval.
		if err := s.walAppendLocked(encodeJobRecord(job, digest)); err != nil {
			s.rejected++
			return err
		}
		if now.Sub(s.lastWalSync) >= s.cfg.SyncInterval {
			if err := s.walSyncLocked(); err != nil {
				s.rejected++
				return err
			}
		}
	}
	s.obs.jobs.Accepted(job.ID, now, job.Submit)
	s.admitLocked(job, digest, now)
	return nil
}

// admitLocked commits an accepted job to shard state: the tail of
// acceptLocked (after validation and the write-ahead append) and all of
// replaying a job record, which passes a zero stamp. Called with mu held.
func (s *shard) admitLocked(job *trace.Job, digest uint64, accepted time.Time) {
	if job.ID >= s.autoID {
		s.autoID = job.ID + 1
	}
	s.markLiveLocked(job.ID, digest, accepted)
	s.future.push(job)
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

// halt is the handshake Stop and Crash share: mark the shard stopped (and
// crashed, for Crash), wake the round loop, wait for it to exit. It
// reports whether this call did the halting; a repeat only waits.
func (s *shard) halt(crash bool) bool {
	s.mu.Lock()
	first := !s.stopped
	if first {
		s.stopped, s.crashed = true, crash
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
	if !s.halt(false) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Everything still queued — pending rounds and not-yet-due arrivals —
	// is abandoned into the result's Unscheduled list.
	for s.future.Len() > 0 {
		s.sim.Submit(s.future.pop(), s.simNow)
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
		s.forgetLocked(j.ID, idLive)
		s.unscheduled++
	}
}

// Drain blocks until the ingest queue and pending set are empty (the
// accelerated replay's "trace fully scheduled" condition) and the last
// round's end-of-round hook has returned, the shard dies (ErrShardDown),
// or the context expires.
func (s *shard) Drain(ctx context.Context) error {
	wake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake()
	s.mu.Lock()
	defer s.mu.Unlock()
	for (s.future.Len()+s.sim.Pending() > 0 || s.inHook) && !s.stopped && s.runErr == nil && ctx.Err() == nil {
		s.cond.Wait()
	}
	if err := s.downErrLocked(); err != nil {
		return err
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

// downErrLocked is why a dead shard refuses work: ErrShardDown after a
// Crash or a round-loop failure (wrapping the failure), nil while the
// shard serves or after a deliberate Stop. Called with mu held.
func (s *shard) downErrLocked() error {
	switch {
	case s.runErr != nil:
		return fmt.Errorf("%w: shard %d: %w", ErrShardDown, s.id, s.runErr)
	case s.crashed:
		return fmt.Errorf("%w: shard %d", ErrShardDown, s.id)
	}
	return nil
}

// downErr is downErrLocked for callers without mu.
func (s *shard) downErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.downErrLocked()
}

// failLocked records the first failure that halts the round loop and
// wakes the loop and any drainer to see it. Returns err. Called with mu
// held.
func (s *shard) failLocked(err error) error {
	if s.runErr == nil {
		s.runErr = err
	}
	s.cond.Broadcast()
	return err
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

// readDecisions runs read on the decision log under the shard lock and
// returns the log cursor, snapshotted atomically with what read sees — the
// export the service's k-way merge and a one-shard service's pages are
// built on. read must not keep the ring past its return.
func (s *shard) readDecisions(read func(log *Ring[decRecord])) Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Group commit on read: every decision a reader takes is on disk
	// before it leaves the shard, so a served decision can never be lost
	// to a crash — the invariant the restart equivalence rests on.
	_ = s.walSyncIfDirtyLocked()
	cur := Cursor{
		Seq:      s.decSeq,
		Oldest:   s.decisions.Oldest(),
		Frontier: s.simNow,
		// A dead shard with no log decides nothing ever again: nothing can
		// rebuild it.
		Idle: s.future.Len() == 0 && s.sim.Pending() == 0 || s.wlog == nil && s.downErrLocked() != nil,
	}
	if s.nextK == 0 {
		// No round has run yet, so round 0 — whose time IS simNow — may
		// still produce decisions: the frontier lies strictly before it.
		// (After any round, nextK > 0 and every future decision's Round
		// exceeds simNow, so the plain round clock is the frontier.)
		cur.Frontier = s.simNow.Add(-time.Nanosecond)
	}
	read(&s.decisions)
	return cur
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
		Future:      s.future.Len(),
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
// the queue is empty; paced mode fires rounds on a wall timer. Both return
// on a halt or a failure; a failure is the shard's death, reported to the
// service here (Crash reports its own).
func (s *shard) run() {
	if s.cfg.TimeScale == 0 {
		s.runAccelerated()
	} else {
		s.runPaced()
	}
	s.mu.Lock()
	failed := !s.stopped
	s.mu.Unlock()
	close(s.loopDone)
	if failed {
		s.onDown(s)
	}
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
		// Yield the lock between rounds: a long drain must not starve the
		// HTTP endpoints (Submit/Status/Decisions) for its whole duration.
		// Go's mutex hands off to waiters that have queued >1ms, so this
		// bounds their latency to about one round. The round hook runs in
		// this gap.
		s.notifyRoundLocked()
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
		s.notifyRoundLocked()
		s.mu.Unlock()
	}
}

// notifyRoundLocked runs the end-of-round hook. Called by the round loops
// with mu held; it releases mu around the hook — the recorder's gather
// path re-enters Status, and holding mu would deadlock (and would bill
// scrape time to the scheduling lock). Drain waits for the hook too, so
// whatever the hook submits is drained with the round that ran it.
func (s *shard) notifyRoundLocked() {
	rounds := s.rounds
	s.inHook = true
	s.mu.Unlock()
	s.onRound(s.id, rounds)
	s.mu.Lock()
	s.inHook = false
	s.cond.Broadcast()
}

// nextRoundLocked picks the next round index to run in accelerated mode:
// the very next round while jobs are pending (deferred jobs are re-offered
// every round, as offline), otherwise the round aligned at or after the
// earliest queued arrival. No work → no round.
func (s *shard) nextRoundLocked() (int64, bool) {
	if s.sim.Pending() > 0 {
		return s.nextK, true
	}
	if s.future.Len() > 0 {
		due := s.future.peek().job.Submit.Sub(s.cfg.Env.Start)
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
		s.failLocked(err)
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
	for due := wire.TimeNano(now); s.future.Len() > 0 && s.future.peek().submit <= due; {
		job := s.future.pop()
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
// determinism's checksum) and whose instants and footprints are published
// in place of their twins', so DecidedWall survives a restart. Returns the
// commit instant and the solve time. Called with mu held.
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
	round, wallNs := wire.TimeNano(now), wire.TimeNano(wall)
	for i := range outcomes {
		o := &outcomes[i]
		s.decSeq++
		s.decided++
		d := decRecord{
			seq: s.decSeq, jobID: int64(o.Job.ID),
			round: round, start: wire.TimeNano(o.Start), finish: wire.TimeNano(o.Finish),
			carbonG:     float64(o.Compute.Carbon() + o.Comm.Carbon()),
			waterL:      float64(o.Compute.Water() + o.Comm.Water()),
			decidedWall: wallNs,
			// The Sim refuses a placement outside its partition, so the
			// region is always found.
			region: uint16(s.regionIndex(o.Region)), shard: uint16(s.id),
		}
		if logged != nil {
			ld := &logged[i]
			if ld.Seq != d.seq || ld.JobID != o.Job.ID || ld.Region != o.Region ||
				!ld.Start.Equal(o.Start) || !ld.Finish.Equal(o.Finish) {
				return wall, solve, fmt.Errorf("%w: decision %d: re-derived job %d -> %s [%v, %v] seq %d, log says %+v",
					ErrReplayDiverged, i, o.Job.ID, o.Region, o.Start, o.Finish, d.seq, *ld)
			}
			d.round, d.decidedWall = wire.TimeNano(ld.Round), wire.TimeNano(ld.DecidedWall)
			d.carbonG, d.waterL = ld.CarbonG, ld.WaterL
		}
		accepted := s.recordDecidedLocked(o.Job.ID)
		s.decisions.Append(d)
		s.roundDecs = append(s.roundDecs, d)
		if accepted != 0 {
			s.obs.decision.Record((wall.Sub(s.epoch) - time.Duration(accepted)).Seconds())
		}
		s.obs.jobs.Decided(o.Job.ID, k, wall, string(o.Region), o.Start, o.Finish)
	}
	return wall, solve, nil
}
