// Package cluster implements the trace-driven discrete-event simulator of
// the geographically distributed data center WaterWise schedules. It plays
// a job trace against an environment (regional grids + weather), invokes a
// pluggable Scheduler at a fixed cadence, enforces per-region server
// capacity with a per-server machine model, and accounts the carbon and water
// footprint, service time, and delay-tolerance violations of every job —
// the figures of merit of the paper's evaluation.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"waterwise/internal/blocklog"
	"waterwise/internal/footprint"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
	"waterwise/internal/units"
	"waterwise/internal/workload"
)

// PendingJob is a job awaiting a placement decision, with the bookkeeping
// the slack manager needs (T_start in Eq. 14 is when the controller first
// received the job, and Slack holds the rest of the job's score).
type PendingJob struct {
	Job *trace.Job
	// FirstSeen is when the controller first saw this job.
	FirstSeen time.Time
	// Slack is the slack manager's memo of the job's wait-free urgency
	// term. The Sim never reads it: RestorePending clears it, and a
	// PendingSnapshot's consumer does not persist it.
	Slack SlackMemo
	// seq is the job's admission number in its Sim, strictly increasing
	// along the queue: compaction finds a decided job by binary search on
	// it.
	seq uint64
	// admitted is the Sim's round count less the rounds that had passed
	// the job over when it was queued, so the rounds that have passed it
	// over are Sim.rounds − admitted. A round touches only the jobs it
	// decides, so no count is kept on the job itself.
	admitted int
	// decided marks a job placed by the round being committed, so a second
	// decision for it in the same round is rejected.
	decided bool
}

// QueuedJob is a copy of one queued job, as PendingSnapshot hands it out
// and RestorePending takes it back.
type QueuedJob struct {
	Job       *trace.Job
	FirstSeen time.Time
	// Deferrals counts how many scheduling rounds have passed the job over.
	Deferrals int
	// Slack is the job's memo when the snapshot was taken; RestorePending
	// drops it.
	Slack SlackMemo
}

// SlackMemo holds Eq. 14's per-job term TOL·t̂_m − L̄_m, in nanoseconds,
// which the slack manager (internal/core) works out the first time it
// ranks the job; every later round only subtracts the wait. The term is a
// pure function of the job and of its Sim's Tolerance, transfer model and
// region set, which are fixed for the Sim's life, so the memo stays valid
// for as long as the job is queued in the Sim that filled it. A job handed
// to another Sim, through PendingSnapshot and RestorePending, arrives with
// the memo cleared. The zero value is an empty memo.
type SlackMemo struct {
	// Base is TOL·t̂_m − L̄_m; it means something only when Set.
	Base float64
	Set  bool
}

// Decision places one job in a region. StartAt lets oracle schedulers
// (Carbon/Water-Greedy-Opt) deliberately delay execution; the zero value
// means "as soon as possible" (now + transfer latency). DurationOverride
// and EnergyOverride let power-scaling schedulers (Ecovisor) stretch a job;
// zero values mean "use the job's actuals".
type Decision struct {
	Job              *trace.Job
	Region           region.ID
	StartAt          time.Time
	DurationOverride time.Duration
	EnergyOverride   units.KWh
}

// Context is everything a Scheduler may consult when deciding. Schedulers
// other than the explicitly-labelled oracle ones must only read the
// environment at Now (no future peeking).
//
// The Context's fields (the Free/Busy maps and the Jobs slice included) are
// rewritten every round and are only valid for the duration of the
// Schedule call. What a scheduler may keep across rounds of one Sim:
//   - the *Context itself: a Sim hands every round the same one, and no
//     other Sim hands out that pointer;
//   - the *PendingJob of a queued job, which stays the same while the job is
//     queued. Jobs keep their order in ctx.Jobs: a round removes the jobs it
//     decided and appends arrivals at the tail, and nothing else moves, so a
//     scheduler that remembers the queue's length and last job after a
//     round can find that round's arrivals as the suffix after them;
//   - a job's PendingJob.Slack, which it may fill and read back.
//
// Sim.RestorePending and Sim.Abandon replace every *PendingJob (none of the
// old pointers is queued again, so a remembered last job no longer
// matches).
type Context struct {
	Now  time.Time
	Jobs []*PendingJob
	// Free is the number of servers per region free right now.
	Free map[region.ID]int
	// Busy is the number of servers per region currently reserved.
	Busy map[region.ID]int
	Env  *region.Environment
	Net  *transfer.Model
	FP   *footprint.Model
	// Tolerance is the delay tolerance TOL as a fraction (0.25 = 25%).
	Tolerance float64
	// FreeAt reports how many servers of a region are free for the whole
	// interval [start, start+exec). It reflects only committed decisions,
	// not ones made earlier in the same Schedule call — schedulers must
	// track their own intra-batch placements. The count is of servers free
	// at start, and exec is not consulted: a server free at start holds no
	// later reservation, because a placement reserves a server only at or
	// after its next-free instant.
	FreeAt func(id region.ID, start time.Time, exec time.Duration) int
}

// Scheduler decides job placement. Jobs absent from the returned decisions
// stay pending and are offered again next round.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Schedule returns placement decisions for (a subset of) ctx.Jobs.
	Schedule(ctx *Context) ([]Decision, error)
}

// JobOutcome records everything measured about one executed job.
type JobOutcome struct {
	Job      *trace.Job
	Region   region.ID
	Start    time.Time
	Finish   time.Time
	Transfer time.Duration
	// Exec is the realized execution duration (possibly stretched by an
	// override).
	Exec time.Duration
	// Compute is the footprint of execution (Eq. 1-5).
	Compute footprint.Footprint
	// Comm is the footprint of moving the package across regions.
	Comm footprint.Footprint
	// CostUSD is the electricity spend of the execution (price x PUE x
	// energy), for the paper's §7 cost-objective extension.
	CostUSD float64
	// Violated reports whether service time exceeded (1+TOL)*exec-estimate.
	Violated bool
}

// ServiceTime is the user-visible latency: submission to completion.
func (o JobOutcome) ServiceTime() time.Duration { return o.Finish.Sub(o.Job.Submit) }

// NormalizedService is service time over home-region execution time — the
// paper's Table 2 metric.
func (o JobOutcome) NormalizedService() float64 {
	if o.Job.Duration <= 0 {
		return 1
	}
	return float64(o.ServiceTime()) / float64(o.Job.Duration)
}

// TickStat records one scheduling round's decision-making cost (Fig. 13).
type TickStat struct {
	At       time.Time
	Batch    int
	Decided  int
	Overhead time.Duration
}

// Result aggregates a whole simulation run.
type Result struct {
	Scheduler string
	Tolerance float64
	Outcomes  []JobOutcome
	Ticks     []TickStat
	// Unscheduled are jobs that never received a placement (should be
	// empty; non-empty indicates a scheduler bug or impossible capacity).
	Unscheduled []*trace.Job
}

// TotalCarbon sums compute+comm carbon across all jobs.
func (r *Result) TotalCarbon() units.GramsCO2 {
	var g units.GramsCO2
	for _, o := range r.Outcomes {
		g += o.Compute.Carbon() + o.Comm.Carbon()
	}
	return g
}

// TotalCostUSD sums the electricity spend across all jobs.
func (r *Result) TotalCostUSD() float64 {
	c := 0.0
	for _, o := range r.Outcomes {
		c += o.CostUSD
	}
	return c
}

// TotalWater sums compute+comm water across all jobs.
func (r *Result) TotalWater() units.Liters {
	var w units.Liters
	for _, o := range r.Outcomes {
		w += o.Compute.Water() + o.Comm.Water()
	}
	return w
}

// MeanNormalizedService is the average of Table 2's service-time metric.
func (r *Result) MeanNormalizedService() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	s := 0.0
	for _, o := range r.Outcomes {
		s += o.NormalizedService()
	}
	return s / float64(len(r.Outcomes))
}

// ViolationRate is the fraction of jobs whose service time exceeded their
// delay tolerance.
func (r *Result) ViolationRate() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	v := 0
	for _, o := range r.Outcomes {
		if o.Violated {
			v++
		}
	}
	return float64(v) / float64(len(r.Outcomes))
}

// MergeResults merges the per-partition results of one region-sharded run
// into a single Result, as if one simulator had executed every job:
// outcomes and unscheduled jobs are re-sorted into the canonical job-ID
// order, and per-round ticks are merged by round time with the batch
// sizes, decision counts, and overheads of concurrent shard rounds summed
// (the overhead sum is aggregate solver wall time across shards — Fig.
// 13's fleet-wide decision cost). All parts must share a tolerance;
// distinct scheduler names are joined with "+".
func MergeResults(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cluster: merging zero results")
	}
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("cluster: merging nil result")
		}
	}
	var nOut, nUnsched, nTicks int
	for _, p := range parts {
		nOut, nUnsched, nTicks = nOut+len(p.Outcomes), nUnsched+len(p.Unscheduled), nTicks+len(p.Ticks)
	}
	// Each slice is sized once, and stays nil when no part has entries.
	merged := &Result{
		Scheduler: parts[0].Scheduler, Tolerance: parts[0].Tolerance,
		Outcomes:    slices.Grow([]JobOutcome(nil), nOut),
		Unscheduled: slices.Grow([]*trace.Job(nil), nUnsched),
	}
	ticks := slices.Grow([]TickStat(nil), nTicks)
	for _, p := range parts {
		if p.Tolerance != merged.Tolerance {
			return nil, fmt.Errorf("cluster: merging results with tolerances %g and %g",
				merged.Tolerance, p.Tolerance)
		}
		if p.Scheduler != merged.Scheduler {
			merged.Scheduler = merged.Scheduler + "+" + p.Scheduler
		}
		merged.Outcomes = append(merged.Outcomes, p.Outcomes...)
		merged.Unscheduled = append(merged.Unscheduled, p.Unscheduled...)
		ticks = append(ticks, p.Ticks...)
	}
	sort.Slice(merged.Outcomes, func(i, j int) bool {
		return merged.Outcomes[i].Job.ID < merged.Outcomes[j].Job.ID
	})
	sort.Slice(merged.Unscheduled, func(i, j int) bool {
		return merged.Unscheduled[i].ID < merged.Unscheduled[j].ID
	})
	// Coalesce ticks of the same round across shards, in place: each
	// part's ticks are already time-ordered, so a stable sort by At groups
	// concurrent rounds.
	sort.SliceStable(ticks, func(i, j int) bool { return ticks[i].At.Before(ticks[j].At) })
	merged.Ticks = ticks[:0]
	for _, t := range ticks {
		if n := len(merged.Ticks); n > 0 && merged.Ticks[n-1].At.Equal(t.At) {
			merged.Ticks[n-1].Batch += t.Batch
			merged.Ticks[n-1].Decided += t.Decided
			merged.Ticks[n-1].Overhead += t.Overhead
			continue
		}
		merged.Ticks = append(merged.Ticks, t)
	}
	return merged, nil
}

// Config parameterizes a simulation run.
type Config struct {
	Env *region.Environment
	Net *transfer.Model
	FP  *footprint.Model
	// Tick is the scheduler invocation cadence (default 1 minute).
	Tick time.Duration
	// Tolerance is the delay tolerance fraction (e.g. 0.5 for 50%).
	Tolerance float64
}

// maxDrain bounds how long past the last arrival Run keeps ticking to
// flush queues.
const maxDrain = 48 * time.Hour

func (c Config) withDefaults() (Config, error) {
	if c.Env == nil {
		return c, fmt.Errorf("cluster: nil environment")
	}
	if c.Net == nil {
		c.Net = transfer.New()
	}
	if c.FP == nil {
		c.FP = footprint.NewModel(footprint.NoPerturbation)
	}
	if c.Tick <= 0 {
		c.Tick = time.Minute
	}
	if c.Tolerance < 0 {
		return c, fmt.Errorf("cluster: negative tolerance %g", c.Tolerance)
	}
	return c, nil
}

// regionState models a region as a bank of servers, each with the time at
// which it next becomes free — the standard machine model of cluster
// simulators. Jobs that arrive at a full region queue on the server that
// frees earliest, which is exactly the paper's source of delay-tolerance
// violations.
//
// The only state is one slot per server, kept sorted by (next-free instant,
// server index), so the servers free at t are a prefix of the slice: a free
// count is one binary search, a placement three (the free prefix, the first
// of its latest instant, the new position) plus a copy of the slots between
// the chosen server's old and new positions. The index as secondary key is
// what makes every tie go to the lowest-numbered server. A min-heap of
// release times would answer "earliest-freeing" but not best fit's "latest
// instant not after want" without popping.
type regionState struct {
	slots []serverSlot
}

// serverSlot is one server's next-free instant. Instants stay time.Time:
// every server starts at the zero time, whose UnixNano is undefined.
type serverSlot struct {
	until time.Time
	srv   int
}

// compare orders slots by instant, then by server index.
func (a serverSlot) compare(b serverSlot) int {
	if c := a.until.Compare(b.until); c != 0 {
		return c
	}
	return cmp.Compare(a.srv, b.srv)
}

func newRegionState(servers int) *regionState {
	rs := &regionState{slots: make([]serverSlot, servers)}
	for i := range rs.slots {
		rs.slots[i].srv = i
	}
	return rs
}

// freeCount counts servers free at instant t: the length of the prefix of
// slots whose instant is not after t.
func (rs *regionState) freeCount(t time.Time) int {
	return sort.Search(len(rs.slots), func(i int) bool { return rs.slots[i].until.After(t) })
}

// place reserves a server for an exec-long run starting no earlier than
// want, and returns the actual start. Among servers already free at want it
// picks the one that has been idle the shortest (best fit) — the first slot
// holding the latest instant not after want; if none is free, the job
// queues on the earliest-freeing server, slot 0. Both rules break ties
// toward the lowest server index.
func (rs *regionState) place(want time.Time, exec time.Duration) time.Time {
	i, start := 0, want
	if k := rs.freeCount(want); k > 0 {
		latest := rs.slots[k-1].until
		i = sort.Search(k, func(j int) bool { return !rs.slots[j].until.Before(latest) })
	} else {
		start = rs.slots[0].until
	}
	moved := serverSlot{until: start.Add(exec), srv: rs.slots[i].srv}
	// A negative exec moves the slot left, so search the whole slice. No
	// other slot shares moved's server index, so p is where it belongs with
	// slot i still counted: one past its final position if it moves right.
	p := sort.Search(len(rs.slots), func(j int) bool { return rs.slots[j].compare(moved) >= 0 })
	if p > i {
		p--
		copy(rs.slots[i:p], rs.slots[i+1:p+1])
	} else {
		copy(rs.slots[p+1:i+1], rs.slots[p:i])
	}
	rs.slots[p] = moved
	return start
}

// Sim is the incremental form of the simulator: the same round engine Run
// drives, exposed step by step so a long-running service (internal/server)
// can feed it streaming arrivals and fire scheduling rounds on its own
// clock — wall or accelerated. Replaying a trace through Submit/Step at the
// offline cadence reproduces Run exactly, by construction. A Sim is not safe
// for concurrent use; the owner serializes access.
type Sim struct {
	cfg    Config
	sched  Scheduler
	states map[region.ID]*regionState
	// pending holds jobs awaiting a placement decision, in submission
	// order; byID indexes the same jobs by ID (IDs are unique among pending
	// jobs). The index lives across rounds: entered in Submit and
	// RestorePending, left when the job is decided, emptied by Abandon.
	pending []*PendingJob
	byID    map[int]*PendingJob
	// nextSeq numbers the next queued job; rounds counts the rounds whose
	// decisions were committed, the clock a queued job's deferrals are read
	// from; gone collects the seqs of the jobs the round being committed
	// decided.
	nextSeq uint64
	rounds  int
	gone    []uint64
	res     *Result
	// outcomes is every outcome so far, in decision order; Result hands
	// out res.Outcomes as the log's entries sorted by job ID. round holds
	// the current Step's outcomes, reused from round to round.
	outcomes blocklog.Log[JobOutcome]
	round    []JobOutcome
	sorted   bool
	// ctx is the scheduler context, reused across Steps (a Sim is
	// single-owner by contract). Its free/busy maps are only valid for the
	// duration of the Schedule call.
	ctx Context
}

// NewSim validates and defaults cfg and returns an empty incremental
// simulator for the scheduler.
func NewSim(cfg Config, sched Scheduler) (*Sim, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	states := make(map[region.ID]*regionState, len(cfg.Env.Regions))
	for _, r := range cfg.Env.Regions {
		states[r.ID] = newRegionState(r.Servers)
	}
	s := &Sim{
		cfg: cfg, sched: sched, states: states,
		res:      &Result{Scheduler: sched.Name(), Tolerance: cfg.Tolerance},
		byID:     make(map[int]*PendingJob),
		outcomes: blocklog.New[JobOutcome](blocklog.BlockSize, 0),
	}
	s.ctx = Context{
		Free: make(map[region.ID]int, len(states)),
		Busy: make(map[region.ID]int, len(states)),
		Env:  cfg.Env, Net: cfg.Net, FP: cfg.FP, Tolerance: cfg.Tolerance,
		FreeAt: func(id region.ID, start time.Time, exec time.Duration) int {
			rs, ok := s.states[id]
			if !ok {
				return 0
			}
			return rs.freeCount(start)
		},
	}
	return s, nil
}

// Submit queues a job for placement; at is the controller-side arrival
// instant (PendingJob.FirstSeen, the T_start of the Eq. 14 urgency score).
func (s *Sim) Submit(job *trace.Job, at time.Time) {
	s.enqueue(&PendingJob{Job: job, FirstSeen: at}, 0)
}

// enqueue appends pj to the queue, already passed over deferrals times.
func (s *Sim) enqueue(pj *PendingJob, deferrals int) {
	pj.seq, pj.admitted = s.nextSeq, s.rounds-deferrals
	s.nextSeq++
	s.pending = append(s.pending, pj)
	s.byID[pj.Job.ID] = pj
}

// Pending reports the number of jobs awaiting placement.
func (s *Sim) Pending() int { return len(s.pending) }

// Free reports the number of servers per region free at an instant.
func (s *Sim) Free(at time.Time) map[region.ID]int {
	free := make(map[region.ID]int, len(s.states))
	for id, rs := range s.states {
		free[id] = rs.freeCount(at)
	}
	return free
}

// Step runs one scheduling round at now: builds the scheduler's context,
// asks it for decisions, commits them (reserving capacity and accounting
// footprints), and returns this round's outcomes. Rounds with no pending
// jobs are no-ops (no tick is recorded, matching Run). The returned slice
// is reused by the next Step, so it is valid only until then: a caller
// that keeps outcomes copies them (Result holds every one). An error
// from a faulty decision leaves the ones before it committed: the Sim is
// then inconsistent and must not be stepped again.
func (s *Sim) Step(now time.Time) ([]JobOutcome, error) {
	if len(s.pending) == 0 {
		return nil, nil
	}
	// The pooled context (maps included) is reused every round; schedulers
	// must not retain it past the Schedule call.
	ctx := &s.ctx
	clear(ctx.Free)
	clear(ctx.Busy)
	for id, rs := range s.states {
		f := rs.freeCount(now)
		ctx.Free[id] = f
		ctx.Busy[id] = len(rs.slots) - f
	}
	ctx.Now = now
	ctx.Jobs = s.pending
	t0 := time.Now()
	decisions, err := s.sched.Schedule(ctx)
	overhead := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("cluster: scheduler %s at %v: %w", s.sched.Name(), now, err)
	}
	s.round, s.gone = s.round[:0], s.gone[:0]
	err = s.apply(now, decisions)
	for i := range s.round {
		s.outcomes.Append(s.round[i])
	}
	s.sorted = false
	if err != nil {
		return nil, err
	}
	s.res.Ticks = append(s.res.Ticks, TickStat{At: now, Batch: len(s.pending), Decided: len(decisions), Overhead: overhead})
	s.compact()
	s.rounds++
	return s.round, nil
}

// Abandon moves every still-pending job to the result's Unscheduled list —
// the drain-deadline overrun path of Run, or a service shutting down with
// jobs in the queue — and returns the abandoned jobs.
func (s *Sim) Abandon() []*trace.Job {
	out := make([]*trace.Job, 0, len(s.pending))
	for _, pj := range s.pending {
		s.res.Unscheduled = append(s.res.Unscheduled, pj.Job)
		out = append(out, pj.Job)
	}
	s.pending = nil
	clear(s.byID)
	return out
}

// BusySnapshot copies every region's per-server next-free instants — the
// machine-model state a durable checkpoint must carry so a restarted
// simulator places jobs on servers exactly as the dead one would have.
func (s *Sim) BusySnapshot() map[region.ID][]time.Time {
	out := make(map[region.ID][]time.Time, len(s.states))
	for id, rs := range s.states {
		until := make([]time.Time, len(rs.slots))
		for _, sl := range rs.slots {
			until[sl.srv] = sl.until
		}
		out[id] = until
	}
	return out
}

// RestoreBusy overwrites the per-server reservation state from a
// BusySnapshot taken on an identically-configured simulator. Regions and
// server counts must match the Sim's environment exactly; a snapshot that
// does not is rejected before any region is written.
func (s *Sim) RestoreBusy(busy map[region.ID][]time.Time) error {
	for id, until := range busy {
		rs, ok := s.states[id]
		if !ok {
			return fmt.Errorf("cluster: restoring unknown region %q", id)
		}
		if len(until) != len(rs.slots) {
			return fmt.Errorf("cluster: restoring region %q with %d servers, have %d", id, len(until), len(rs.slots))
		}
	}
	for id := range s.states {
		if _, ok := busy[id]; !ok {
			return fmt.Errorf("cluster: restoring without region %q", id)
		}
	}
	for id, rs := range s.states {
		for srv, until := range busy[id] {
			rs.slots[srv] = serverSlot{until: until, srv: srv}
		}
		slices.SortFunc(rs.slots, serverSlot.compare)
	}
	return nil
}

// PendingSnapshot copies the jobs awaiting placement, with FirstSeen — the
// T_start the slack manager's urgency score (Eq. 14) depends on — and the
// Deferrals count, which no score reads: it is bookkeeping a durable
// checkpoint carries so a restored queue equals the one snapshotted. The
// copies also carry each job's Slack memo, which is not state:
// RestorePending drops it, and the durable checkpoint does not write it.
func (s *Sim) PendingSnapshot() []QueuedJob {
	out := make([]QueuedJob, len(s.pending))
	for i, pj := range s.pending {
		out[i] = QueuedJob{Job: pj.Job, FirstSeen: pj.FirstSeen, Deferrals: s.rounds - pj.admitted, Slack: pj.Slack}
	}
	return out
}

// RestorePending replaces the pending queue from a PendingSnapshot,
// preserving order (schedulers see jobs in submission order). Each job's
// Slack memo is cleared: the snapshot may come from a Sim with another
// tolerance, transfer model or region set.
func (s *Sim) RestorePending(jobs []QueuedJob) {
	s.pending = s.pending[:0]
	clear(s.byID)
	for _, q := range jobs {
		s.enqueue(&PendingJob{Job: q.Job, FirstSeen: q.FirstSeen}, q.Deferrals)
	}
}

// Result returns the accumulated simulation result with outcomes in job-ID
// order. The Sim remains usable; a later Result after further Steps holds
// their outcomes too. A log that fits one block (Run sizes it so) is
// sorted in place; a longer one is copied out once per call after a Step.
func (s *Sim) Result() *Result {
	if !s.sorted {
		s.res.Outcomes = s.outcomes.Slice()
		sort.Slice(s.res.Outcomes, func(i, j int) bool { return s.res.Outcomes[i].Job.ID < s.res.Outcomes[j].Job.ID })
		s.sorted = true
	}
	return s.res
}

// Run plays the trace against the scheduler and returns the full result.
// The trace must be sorted by submission time (generators guarantee this).
func Run(cfg Config, sched Scheduler, jobs []*trace.Job) (*Result, error) {
	sim, err := NewSim(cfg, sched)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit.Before(jobs[i-1].Submit) {
			return nil, fmt.Errorf("cluster: trace not sorted at job %d", jobs[i].ID)
		}
	}
	cfg = sim.cfg // defaults applied
	// Every job gets at most one outcome, so the log is one block sized
	// for the trace.
	sim.outcomes = blocklog.New[JobOutcome](blocklog.BlockSize, len(jobs))
	nextJob := 0
	now := cfg.Env.Start
	var lastArrival time.Time
	if len(jobs) > 0 {
		lastArrival = jobs[len(jobs)-1].Submit
	} else {
		lastArrival = cfg.Env.Start
	}
	deadline := lastArrival.Add(maxDrain)

	for {
		// Ingest arrivals up to now.
		for nextJob < len(jobs) && !jobs[nextJob].Submit.After(now) {
			sim.Submit(jobs[nextJob], now)
			nextJob++
		}
		if _, err := sim.Step(now); err != nil {
			return nil, err
		}
		if nextJob >= len(jobs) && sim.Pending() == 0 {
			break
		}
		now = now.Add(cfg.Tick)
		if now.After(deadline) {
			sim.Abandon()
			break
		}
	}
	return sim.Result(), nil
}

// apply commits decisions: reserves capacity, computes footprints, appends
// outcomes to s.round, and takes each decided job out of the pending index,
// its seq noted for compact to drop it from the queue. O(decisions).
func (s *Sim) apply(now time.Time, decisions []Decision) error {
	cfg, states := s.cfg, s.states
	for _, d := range decisions {
		pj, ok := s.byID[d.Job.ID]
		if !ok {
			return fmt.Errorf("cluster: scheduler decided job %d which is not pending", d.Job.ID)
		}
		if pj.decided {
			return fmt.Errorf("cluster: scheduler decided job %d twice in one round", d.Job.ID)
		}
		rs, ok := states[d.Region]
		if !ok {
			return fmt.Errorf("cluster: scheduler sent job %d to unknown region %q", d.Job.ID, d.Region)
		}
		job := pj.Job

		pkgMB := workload.PackageMB(job.Benchmark)
		lat := cfg.Net.Latency(job.Home, d.Region, pkgMB)

		start := now.Add(lat)
		if d.StartAt.After(start) {
			start = d.StartAt
		}
		exec := job.Duration
		if d.DurationOverride > 0 {
			exec = d.DurationOverride
		}
		energy := job.Energy
		if d.EnergyOverride > 0 {
			energy = d.EnergyOverride
		}
		start = rs.place(start, exec)
		finish := start.Add(exec)

		snap, ok := cfg.Env.Snapshot(d.Region, start)
		if !ok {
			return fmt.Errorf("cluster: no snapshot for region %q", d.Region)
		}
		compute := cfg.FP.ForJob(snap, energy, exec)

		var comm footprint.Footprint
		if d.Region != job.Home {
			commEnergy := cfg.Net.Energy(job.Home, d.Region, pkgMB)
			// Attribute network energy to the destination grid conditions;
			// transfer occupies no servers, so no embodied amortization.
			comm = cfg.FP.ForJob(snap, commEnergy, 0)
		}

		allowed := time.Duration(float64(job.Duration) * (1 + cfg.Tolerance))
		costUSD := 0.0
		if reg := cfg.Env.Region(d.Region); reg != nil {
			costUSD = reg.EnergyPriceUSD * float64(energy) * snap.PUE
		}
		out := JobOutcome{
			Job: job, Region: d.Region, Start: start, Finish: finish,
			Transfer: lat, Exec: exec, Compute: compute, Comm: comm,
			CostUSD:  costUSD,
			Violated: finish.Sub(job.Submit) > allowed,
		}
		s.round = append(s.round, out)
		pj.decided = true
		s.gone = append(s.gone, pj.seq)
	}
	for _, d := range decisions {
		delete(s.byID, d.Job.ID)
	}
	return nil
}

// compact drops the jobs apply decided from the queue, keeping the rest in
// order. The queue is sorted by seq, so each decided job is found by binary
// search, and one pass of copies closes the gaps from the first of them on:
// O(decided · log pending) reads, and no surviving job is loaded.
func (s *Sim) compact() {
	q := s.pending
	switch len(s.gone) {
	case 0:
		return
	case len(q): // the round decided every job it was offered
		clear(q)
		s.pending = q[:0]
		return
	}
	slices.Sort(s.gone)
	bySeq := func(pj *PendingJob, seq uint64) int { return cmp.Compare(pj.seq, seq) }
	w, _ := slices.BinarySearchFunc(q, s.gone[0], bySeq)
	r := w + 1
	for _, seq := range s.gone[1:] {
		p, _ := slices.BinarySearchFunc(q[r:], seq, bySeq)
		w += copy(q[w:], q[r:r+p])
		r += p + 1
	}
	w += copy(q[w:], q[r:])
	clear(q[w:]) // the decided jobs' pointers
	s.pending = q[:w]
}
