package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/fleet"
	"waterwise/internal/region"
	"waterwise/internal/trace"
)

const (
	fleetShards = 2
	fleetPage   = 4096 // decisions per Fleet.Decisions call
)

// fleetIter is what one iteration of fleet-drain measured.
type fleetIter struct {
	jobs     int
	submit   time.Duration // every Fleet.Submit
	wall     time.Duration // submit + Start + tail + Drain
	pageTime time.Duration // spent inside Fleet.Decisions
	ackMs    []float64     // wall of each 512 consecutive Fleet.Submit calls
	lagMs    []float64     // shard DecidedWall -> appearance in the merged stream
	got      map[int]decisionKey
	digest   uint64 // of the shards' merged result
	perShard []uint64
	result   *cluster.Result
	setupS   float64
	envS     float64
	genS     float64
	world    *world
	trace    []*trace.Job
	parts    [][]region.ID
}

// fleetIteration submits the whole trace through the gateway, starts the
// shards, tails the merged stream until it is complete, and drains.
func fleetIteration(r *run, spans *spanLog, it int) (*fleetIter, error) {
	out := &fleetIter{}
	root := spans.begin("iteration", -1, int64(it))
	defer spans.end(root)
	t0 := time.Now()
	spec := offlineSpecs["paper-replay"].scaledSpec(r)
	w, err := newWorld(r.seed, spec.servers, spec.hours+72)
	if err != nil {
		return nil, err
	}
	out.world, out.envS = w, time.Since(t0).Seconds()
	g0 := time.Now()
	jobs, err := spec.generate(w, r.seed)
	if err != nil {
		return nil, err
	}
	out.trace, out.jobs, out.genS = jobs, len(jobs), time.Since(g0).Seconds()
	fl, err := fleet.New(fleet.Config{
		Env: w.env, Net: w.net, FP: w.fp, Shards: fleetShards, Tolerance: tolerance,
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) { return servedScheduler() },
		// The whole trace is queued before Start and merged afterwards, so
		// neither a shard's queue nor any ring may overflow.
		QueueCap: len(jobs) + 1, DecisionLogCap: len(jobs) + 1,
	})
	if err != nil {
		return nil, err
	}
	defer fl.Stop()
	out.parts = fl.Partitions()
	out.setupS = time.Since(t0).Seconds()

	start := time.Now()
	sp := spans.begin("fleet.Submit(all)", root, int64(it))
	batch := start
	for i, j := range jobs {
		if _, err := fl.Submit(specFor(j)); err != nil {
			return nil, fmt.Errorf("submitting job %d: %w", j.ID, err)
		}
		if (i+1)%httpBatch == 0 {
			now := time.Now()
			out.ackMs = append(out.ackMs, float64(now.Sub(batch))/1e6)
			batch = now
		}
	}
	out.submit = time.Since(start)
	spans.end(sp)
	fl.Start()

	sp = spans.begin("fleet.tail", root, int64(it))
	out.got = make(map[int]decisionKey, len(jobs))
	var since uint64
	for len(out.got) < len(jobs) {
		if time.Since(start) > drainTimeout {
			return nil, fmt.Errorf("only %d of %d decisions merged after %v", len(out.got), len(jobs), drainTimeout)
		}
		p0 := time.Now()
		page := fl.Decisions(since, fleetPage)
		now := time.Now()
		out.pageTime += now.Sub(p0)
		for i := range page {
			d := &page[i]
			if d.Seq != since+uint64(i)+1 {
				return nil, fmt.Errorf("merged seq %d after %d", d.Seq, since+uint64(i))
			}
			if _, dup := out.got[d.JobID]; dup {
				return nil, fmt.Errorf("job %d merged twice", d.JobID)
			}
			out.got[d.JobID] = decisionKeyOf(&d.Decision)
			out.lagMs = append(out.lagMs, float64(now.Sub(d.DecidedWall))/1e6)
		}
		since += uint64(len(page))
		if len(page) < fleetPage {
			time.Sleep(pollEvery) // caught up: poll like a client would, not in a spin
		}
	}
	spans.end(sp)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	err = fl.Drain(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)

	st := fl.Status()
	if st.Lost != 0 || st.Decisions != uint64(len(jobs)) || st.Unscheduled != 0 {
		return nil, fmt.Errorf("fleet decided %d of %d jobs, lost %d, left %d unscheduled", st.Decisions, len(jobs), st.Lost, st.Unscheduled)
	}
	for _, ss := range st.ShardStatus {
		out.perShard = append(out.perShard, ss.Decisions)
	}
	if out.result, err = fl.Result(); err != nil {
		return nil, err
	}
	out.digest = resultDigest(out.result)
	return out, nil
}

// checkPartitions replays every shard's partition offline — the partition's
// view of the environment, the jobs homed in it, a scheduler built the same
// way — and requires the merged stream to hold exactly those decisions.
func checkPartitions(it *fleetIter) error {
	for shard, ids := range it.parts {
		view, err := it.world.env.Partition(ids...)
		if err != nil {
			return err
		}
		var jobs []*trace.Job
		for _, j := range it.trace {
			if view.Region(j.Home) != nil {
				jobs = append(jobs, j)
			}
		}
		sched, err := servedScheduler()
		if err != nil {
			return err
		}
		cfg := it.world.clusterConfig()
		cfg.Env = view
		want, err := cluster.Run(cfg, sched, jobs)
		if err != nil {
			return err
		}
		if err := checkResult(want, len(jobs), view); err != nil {
			return fmt.Errorf("shard %d offline reference: %w", shard, err)
		}
		got := make(map[int]decisionKey, len(jobs))
		for _, j := range jobs {
			if d, ok := it.got[j.ID]; ok {
				got[j.ID] = d
			}
		}
		if err := sameDecisions(want, got); err != nil {
			return fmt.Errorf("shard %d: %w", shard, err)
		}
	}
	return nil
}

// runFleetDrain is the gateway workload: routing, two concurrent round
// loops and the watermark merge. On two cores it cannot show scale-out.
func runFleetDrain(r *run) error {
	var (
		rates, submitNs []float64
		ackP50, ackP90  []float64
		lagMs           []float64
		acks            int
		pageTime        time.Duration
		last            *fleetIter
		probe           *runtimeProbe
		jobs            int
		imbalance       float64
	)
	lp := &loop{r: r}
	for it := 0; lp.next(); it++ {
		if r.traced() && it == 0 {
			probe = startRuntimeProbe()
		}
		if last != nil {
			last.got, last.result, last.trace, last.world = nil, nil, nil, nil // one iteration's data at a time
		}
		cur, err := fleetIteration(r, lp.spans(), it)
		if err != nil {
			return err
		}
		if it > 0 && cur.digest != last.digest {
			return fmt.Errorf("iteration %d decided differently from iteration %d", it, it-1)
		}
		r.offered(cur.jobs, cur.jobs-len(cur.got))
		r.setups = append(r.setups, cur.setupS)
		lp.done(cur.wall)
		pageTime += cur.pageTime
		jobs += cur.jobs
		rates = append(rates, float64(cur.jobs)/cur.wall.Seconds())
		submitNs = append(submitNs, float64(cur.submit)/float64(cur.jobs))
		ack := summarize(cur.ackMs)
		ackP50, ackP90 = append(ackP50, ack.P50), append(ackP90, quantile(cur.ackMs, 0.9))
		acks += ack.N
		lagMs = append(lagMs, cur.lagMs...)
		var most, sum uint64
		for _, n := range cur.perShard {
			most, sum = max(most, n), sum+n
		}
		imbalance = float64(most) * float64(len(cur.perShard)) / float64(max(sum, 1))
		last = cur
		runtime.GC() // so that peak RSS is one iteration's, whatever the collector's timing
	}
	// The per-partition reference runs come after the memory high-water
	// mark is read, on the last iteration (every digest matched it).
	r.markPeak()
	if err := checkPartitions(last); err != nil {
		return err
	}
	if err := reportQuality(r, last.world, last.trace, last.result); err != nil {
		return err
	}
	if probe != nil {
		probe.finish(r, jobs)
		r.setOverhead(lp.pairs())
	}
	lag := summarize(lagMs)
	r.note("%d iterations, %d batches of %d Fleet.Submit calls; per iteration the p50 and p90 of their wall", len(rates), acks, httpBatch)
	r.note("decided -> merged and polled: n=%d p50=%.1f ms p%g=%.1f ms", lag.N, lag.P50, 100*lag.TopQ, lag.Top)
	r.set("jobs_per_s", faster(rates, higher))
	r.set("decision_p50_ms", faster(ackP50, lower))
	r.set("decision_p90_ms", faster(ackP90, lower))
	r.set("region.env_s", last.envS)
	r.set("trace.gen_s", last.genS)
	r.set("fleet.submit_ns_per_job", faster(submitNs, lower))
	r.set("fleet.page_ns_per_decision", float64(pageTime)/float64(jobs))
	r.set("fleet.merge_lag_p50_ms", lag.P50)
	r.set("fleet.merge_lag_p90_ms", quantile(lagMs, 0.9))
	r.set("fleet.shard_imbalance", imbalance)
	return nil
}
