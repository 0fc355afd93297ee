package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/metrics"
	"waterwise/internal/region"
	"waterwise/internal/sched"
	"waterwise/internal/trace"
)

// offlineSpec sizes one offline replay workload at scale 1.
type offlineSpec struct {
	servers    int     // per region
	hours      int     // span of arrivals
	jobsPerDay float64 // mean arrival rate
	durScale   float64
	maxBatch   int // 0 keeps the scheduler's default (64)
	// flash, when set, multiplies the arrival rate by flashMult for
	// flashHours starting at flashAtHour.
	flashAtHour, flashHours int
	flashMult               float64
}

var offlineSpecs = map[string]offlineSpec{
	// The paper's own regime: 5 regions x 35 servers, ~15% utilisation.
	"paper-replay": {servers: 35, hours: 240, jobsPerDay: 23000, durScale: 0.3},
	// A large deployment whose thousand-job rounds make the simplex
	// kernels the dominant cost.
	"large-replay": {servers: 400, hours: 8, jobsPerDay: 1e6, durScale: 0.15, maxBatch: 1000},
	// Demand above capacity: a x10 flash crowd builds a backlog the slack
	// manager has to rank every round.
	"flash-backlog": {servers: 35, hours: 24, jobsPerDay: 23000, durScale: 0.3,
		flashAtHour: 6, flashHours: 2, flashMult: 10},
}

// scaledSpec shrinks the arrival span (and the flash with it) so the smoke
// test keeps each workload's regime at a fraction of the size.
func (s offlineSpec) scaledSpec(r *run) offlineSpec {
	if r.scale >= 1 {
		return s
	}
	if s.flashMult > 0 {
		s.jobsPerDay *= r.scale * 6
		s.servers = max(2, int(float64(s.servers)*r.scale*6))
		return s
	}
	if s.hours <= 24 {
		s.jobsPerDay *= r.scale
		s.servers = max(4, int(float64(s.servers)*r.scale))
		return s
	}
	s.hours = max(6, int(float64(s.hours)*r.scale))
	return s
}

func (s offlineSpec) generate(w *world, seed int64) ([]*trace.Job, error) {
	cfg := trace.Config{
		Start: simStart, Duration: time.Duration(s.hours) * time.Hour,
		JobsPerDay: s.jobsPerDay, Regions: w.env.IDs(), DurationScale: s.durScale,
		Seed: traceSeed(seed),
	}
	if s.flashMult > 0 {
		return trace.GenerateFlashCrowd(trace.FlashConfig{
			Config:        cfg,
			FlashAt:       time.Duration(s.flashAtHour) * time.Hour,
			FlashDuration: time.Duration(s.flashHours) * time.Hour,
			FlashMult:     s.flashMult,
		})
	}
	return trace.GenerateBorgLike(cfg)
}

// timedScheduler is the benchmark's own cluster.Scheduler: it forwards to
// the scheduler under test and times every Schedule call from outside.
type timedScheduler struct {
	inner  cluster.Scheduler
	spans  *spanLog
	parent int

	wallMs  []float64 // per round
	decided []int     // per round
	pending int64     // jobs offered, summed over rounds
	total   time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	start := time.Now()
	ds, err := t.inner.Schedule(ctx)
	d := time.Since(start)
	t.spans.add("core.Schedule", t.parent, int64(len(t.wallMs)), start, d)
	t.wallMs = append(t.wallMs, float64(d)/1e6)
	t.decided = append(t.decided, len(ds))
	t.pending += int64(len(ctx.Jobs))
	t.total += d
	return ds, err
}

// checkResult is the offline correctness gate: every job decided once,
// none unscheduled, no start before submission, and no region ever running
// more jobs than it has servers.
func checkResult(res *cluster.Result, jobs int, env *region.Environment) error {
	if len(res.Outcomes) != jobs {
		return fmt.Errorf("%d outcomes for %d jobs", len(res.Outcomes), jobs)
	}
	if len(res.Unscheduled) != 0 {
		return fmt.Errorf("%d jobs unscheduled", len(res.Unscheduled))
	}
	type event struct {
		at    int64
		delta int
	}
	events := make(map[region.ID][]event)
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if i > 0 && o.Job.ID == res.Outcomes[i-1].Job.ID {
			return fmt.Errorf("job %d decided twice", o.Job.ID)
		}
		if o.Start.Before(o.Job.Submit) {
			return fmt.Errorf("job %d starts %v before its submission %v", o.Job.ID, o.Start, o.Job.Submit)
		}
		if env.Region(o.Region) == nil {
			return fmt.Errorf("job %d placed in unknown region %q", o.Job.ID, o.Region)
		}
		events[o.Region] = append(events[o.Region],
			event{o.Start.UnixNano(), 1}, event{o.Finish.UnixNano(), -1})
	}
	for id, ev := range events {
		// A finish at the same instant as a start frees its server first.
		sort.Slice(ev, func(a, b int) bool {
			if ev[a].at != ev[b].at {
				return ev[a].at < ev[b].at
			}
			return ev[a].delta < ev[b].delta
		})
		running, servers := 0, env.Region(id).Servers
		for _, e := range ev {
			running += e.delta
			if running > servers {
				return fmt.Errorf("region %s runs %d jobs on %d servers", id, running, servers)
			}
		}
	}
	return nil
}

// resultDigest hashes every placement so two iterations can be compared
// without keeping both results.
func resultDigest(res *cluster.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		put(int64(o.Job.ID))
		h.Write([]byte(o.Region))
		put(o.Start.UnixNano())
		put(o.Finish.UnixNano())
	}
	return h.Sum64()
}

// savings runs the carbon- and water-unaware baseline over the same trace
// and compares res against it.
func savings(w *world, jobs []*trace.Job, res *cluster.Result) (metrics.Savings, error) {
	base, err := cluster.Run(w.clusterConfig(), sched.NewBaseline(), jobs)
	if err != nil {
		return metrics.Savings{}, err
	}
	return metrics.Compare(base, res)
}

// reportQuality sets the paper's quality metrics from a result and its trace.
func reportQuality(r *run, w *world, jobs []*trace.Job, res *cluster.Result) error {
	sv, err := savings(w, jobs, res)
	if err != nil {
		return err
	}
	r.set("carbon_saving_pct", sv.CarbonPct)
	r.set("water_saving_pct", sv.WaterPct)
	// The same two figures as footprint left over, which is never near 0
	// and so has a meaningful relative spread on every workload.
	r.set("carbon_vs_baseline_pct", 100-sv.CarbonPct)
	r.set("water_vs_baseline_pct", 100-sv.WaterPct)
	r.set("tolerance_violation_pct", sv.ViolationPct)
	return nil
}

// minSetups is the fewest set-ups setup_s is the median of.
const minSetups = 5

// runOffline replays one offline workload: fresh world, trace and
// scheduler per iteration, cluster.Run timed, every result checked.
func runOffline(r *run) error {
	spec := offlineSpecs[r.workload].scaledSpec(r)
	var (
		rates, p50s, p90s  []float64
		schedules          int
		first              uint64
		wallSum, schedSum  time.Duration
		rounds, softened   int
		pending            int64
		nodes, iters       int
		warm, cold         int
		maxBatch, jobsSeen int
		probe              *runtimeProbe
		last               *cluster.Result
		lastWorld          *world
		lastJobs           []*trace.Job
	)
	// setUp is everything an iteration needs before the clock starts.
	setUp := func() (*world, []*trace.Job, cluster.Scheduler, error) {
		t0 := time.Now()
		w, err := newWorld(r.seed, spec.servers, spec.hours+72)
		if err != nil {
			return nil, nil, nil, err
		}
		envDone := time.Now()
		jobs, err := spec.generate(w, r.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		genDone := time.Now()
		inner, err := offlineScheduler(spec.maxBatch)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.set("region.env_s", envDone.Sub(t0).Seconds())
		r.set("trace.gen_s", genDone.Sub(envDone).Seconds())
		return w, jobs, inner, err
	}
	lp := &loop{r: r}
	for it := 0; lp.next(); it++ {
		last = nil // one iteration's result at a time
		spans := lp.spans()
		iter := spans.begin("iteration", -1, int64(it))
		w, jobs, inner, err := setUp()
		if err != nil {
			return err
		}
		ts := &timedScheduler{inner: inner, spans: spans, parent: iter}
		if r.traced() && it == 0 {
			probe = startRuntimeProbe()
		}

		start := time.Now()
		res, err := cluster.Run(w.clusterConfig(), ts, jobs)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		spans.add("cluster.Run", iter, int64(it), start, wall)
		spans.end(iter)
		lp.done(wall)

		dg := resultDigest(res)
		if it == 0 {
			first = dg
		} else if dg != first {
			return fmt.Errorf("iteration %d placed jobs differently from iteration 0", it)
		}
		r.offered(len(jobs), len(jobs)-len(res.Outcomes))
		last, lastWorld, lastJobs = res, w, jobs

		wallSum += wall
		schedSum += ts.total
		jobsSeen += len(jobs)
		rates = append(rates, float64(len(jobs))/wall.Seconds())
		p50s = append(p50s, weightedQuantile(ts.wallMs, ts.decided, 0.5))
		p90s = append(p90s, weightedQuantile(ts.wallMs, ts.decided, 0.9))
		schedules += len(ts.wallMs)
		pending += ts.pending
		for _, d := range ts.decided {
			maxBatch = max(maxBatch, d)
		}
		runtime.GC() // so that peak RSS is one iteration's, whatever the collector's timing
		if sc, ok := inner.(solverCounters); ok {
			rn, sf := sc.Stats()
			st := sc.SolverStats()
			rounds, softened = rounds+rn, softened+sf
			nodes, iters = nodes+st.Nodes, iters+st.SimplexIters
			warm, cold = warm+st.WarmStarts, cold+st.ColdStarts
		}
	}
	// A workload of few, long iterations sets up a few more times, so that
	// setup_s is a median of at least minSetups samples.
	for len(r.setups) < minSetups {
		if _, _, _, err := setUp(); err != nil {
			return err
		}
	}
	// The checks and the baseline run allocate as much as a replay does:
	// they come after the memory high-water mark is read, on the last
	// iteration's result (every iteration's digest matched it).
	r.markPeak()
	if err := checkResult(last, len(lastJobs), lastWorld.env); err != nil {
		return err
	}
	if err := reportQuality(r, lastWorld, lastJobs, last); err != nil {
		return err
	}
	if probe != nil {
		probe.finish(r, jobsSeen)
		r.setOverhead(lp.pairs())
		if err := solverProbes(r); err != nil {
			return err
		}
	}

	r.note("%d iterations, %d Schedule calls; per iteration the job-weighted p50 and p90 of their wall", len(rates), schedules)
	r.set("jobs_per_s", faster(rates, higher))
	r.set("decision_p50_ms", faster(p50s, lower))
	r.set("decision_p90_ms", faster(p90s, lower))
	n := float64(len(rates))
	r.set("core.schedule_s", schedSum.Seconds()/n)
	r.set("core.schedule_share", schedSum.Seconds()/wallSum.Seconds())
	r.set("core.schedule_ns_per_pending", float64(schedSum)/float64(max(pending, 1)))
	r.set("core.rounds", float64(rounds)/n)
	r.set("core.softened_rounds", float64(softened)/n)
	r.set("core.mean_batch", float64(jobsSeen)/float64(max(schedules, 1)))
	r.set("core.max_batch", float64(maxBatch))
	r.set("cluster.step_self_s", (wallSum-schedSum).Seconds()/n)
	r.set("milp.nodes", float64(nodes)/n)
	r.set("milp.warm_start_frac", float64(warm)/float64(max(warm+cold, 1)))
	r.set("lp.simplex_iters", float64(iters)/n)
	r.set("lp.iters_per_round", float64(iters)/float64(max(rounds, 1)))
	return nil
}
