package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/server"
	"waterwise/internal/trace"
)

const (
	// capacitySteps is how many closed-loop steps share the capacity jobs.
	capacitySteps = 5
	// capacityJobsPerSecond sizes the closed-loop steps by jobs, not time
	// (500k jobs at the committed 15 s, 100k a step), so that the server's
	// memory does not depend on how fast it went.
	capacityJobsPerSecond = 100000.0 / 3
)

// streamStep is one step of stream-steady against a fresh server.
type streamStep struct {
	name string
	rate float64 // jobs/s offered open loop; 0 = closed loop
	jobs int
	// probed brackets the load generator's run with the Go runtime's
	// counters of this process, the server's.
	probed bool
}

// openStep offers rate jobs/s for seconds.
func openStep(name string, rate, seconds float64) streamStep {
	return streamStep{name: name, rate: rate, jobs: max(int(rate*seconds), 20)}
}

// stepResult is one step: the load generator's report plus what the server
// exports about itself afterwards.
type stepResult struct {
	*clientReport
	setupS float64
	envS   float64
	status server.Status
	stages [obs.NumStages]float64 // stage histogram sums, seconds
	pageNs float64                // DecisionsPage cost per decision over the full log
	world  *world
	result *cluster.Result
	// generated is the size of the trace the load generator drew from.
	generated int
	// stealFrac is the share of the machine's processor time that the
	// hypervisor gave to other tenants while the load generator ran.
	stealFrac float64
	// probe is the ended runtime probe of a probed step.
	probe *runtimeProbe
}

// jobs regenerates the trace the load generator offered (same seed, same
// generator), for the baseline comparison and the probes.
func (s *stepResult) jobs(seed int64) ([]*trace.Job, error) {
	all, err := streamTrace(s.world.env.IDs(), seed, s.generated)
	if err != nil {
		return nil, err
	}
	return all[:s.Offered], nil
}

// runStreamStep serves one step from a fresh server while a child process
// generates the load. traced also times the read path afterwards.
func runStreamStep(r *run, step streamStep, traced bool) (*stepResult, error) {
	t0 := time.Now()
	// In accelerated mode every round moves the simulated clock on by at
	// least a minute, and a noisy machine can make rounds as small as one
	// job: size the horizon for that, or the clock runs off its end and the
	// server abandons what is still pending.
	w, err := newWorld(r.seed, 35, step.jobs/60*2+72)
	if err != nil {
		return nil, err
	}
	res := &stepResult{world: w, generated: step.jobs, envS: time.Since(t0).Seconds()}
	sched, err := servedScheduler()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Env: w.env, Net: w.net, FP: w.fp, Scheduler: sched, Tolerance: tolerance,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	listener := srv.ServeStream(ln, server.StreamOptions{})
	defer listener.Close()
	srv.Start()
	res.setupS = time.Since(t0).Seconds()

	spec := clientSpec{
		Addr: ln.Addr().String(), Name: step.name, Rate: step.rate, Seed: r.seed, Jobs: step.jobs,
	}
	if traced {
		spec.SpanDir = r.workDir
	}
	sp := r.spans.begin("step."+step.name, -1, 0)
	if step.probed {
		res.probe = startRuntimeProbe()
	}
	stolen, total := cpuTimes()
	res.clientReport, err = spawnClient(spec)
	if res.probe != nil {
		res.probe.end()
	}
	if stolen1, total1 := cpuTimes(); total1 > total {
		res.stealFrac = (stolen1 - stolen) / (total1 - total)
	}
	r.spans.end(sp)
	if err != nil {
		return nil, err
	}
	res.setupS += res.SetupS
	listener.Close()

	res.status = srv.Status()
	if snaps := srv.ObsSnapshots(); snaps != nil {
		for i := range snaps.Stages {
			res.stages[i] = snaps.Stages[i].Sum
		}
	}
	if traced {
		// DecisionsPage over the full log: the pusher's and a poller's read.
		p0, n := time.Now(), 0
		for since := uint64(0); ; {
			page, _ := srv.DecisionsPage(since, 2048)
			if len(page) == 0 {
				break
			}
			n += len(page)
			since = page[len(page)-1].Seq
		}
		res.pageNs = float64(time.Since(p0)) / float64(max(n, 1))
	}
	srv.Stop()
	res.result = srv.Result()
	return res, nil
}

// cpuTimes reads the machine-wide processor times from /proc/stat, in
// ticks: those stolen by the hypervisor and all of them. Both are 0 where
// there is no such file.
func cpuTimes() (stolen, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// validStep runs a step and fails the run unless every offered job was
// accepted once and decided once. A busy host or a late generator never fails
// a run — the driver needs a result line whatever the machine's other tenants
// do — and no step is repeated for one: while the host is busy a second
// attempt mostly meets the same host, and a run's length should not depend
// on its neighbours. host.steal_frac and client.invalid_segment_frac report
// what the latencies are worth.
func validStep(r *run, step streamStep, traced bool) (*stepResult, error) {
	res, err := runStreamStep(r, step, traced)
	if err != nil {
		return nil, err
	}
	if res.ProtoErr != "" {
		return nil, fmt.Errorf("step %s: %s", step.name, res.ProtoErr)
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("step %s: %d of %d jobs were not accepted once and decided once: %s (server: %d accepted, %d rejected, %d decided, %d unscheduled, %d pending, %d queued, err %q)",
			step.name, res.Failed, res.Offered, res.FailDetail, res.status.Accepted, res.status.Rejected,
			res.status.Decisions, res.status.Unscheduled, res.status.Pending, res.status.Future, res.status.Err)
	}
	r.offered(res.Offered, res.Failed)
	r.setups = append(r.setups, res.setupS)
	r.set("region.env_s", res.envS)
	r.set("trace.gen_s", res.GenS)
	return res, nil
}

// runStreamSteady is the serving-path workload. Untraced it runs the
// latency step and the closed-loop capacity step; traced it adds a second,
// untraced latency step (the difference is the tracing overhead), the
// r24000 diagnostic step and the wire and server probes.
func runStreamSteady(r *run) error {
	rate := 12000.0
	if r.scale < 1 {
		rate = max(200, rate*r.scale)
	}
	// An untraced run spends 0.7 of its seconds on the latency step — the
	// longer it is, the more calm windows it holds on a busy host — and a
	// traced one has four more steps and the probes to fit in.
	latShare, capJobs := 0.7, capacityJobsPerSecond*r.seconds*r.scale/capacitySteps
	if r.traced() {
		latShare, capJobs = 0.28, capJobs/2
	}
	first := openStep("r12000", rate, r.seconds*latShare)
	first.probed = r.traced()
	lat, err := validStep(r, first, r.traced())
	if err != nil {
		return err
	}
	if lat.probe != nil {
		lat.probe.report(r, lat.Offered)
	}
	r.note("due -> decoded at %g jobs/s: calmest %g of %d windows p50=%.3f ms p90=%.3f ms; whole step n=%d p50=%.3f ms p90=%.3f ms p99=%.3f ms; %.1f%% of it in late segments, %.2f%% of the machine stolen",
		rate, calmLatShare, lat.Windows, lat.WinP50, lat.WinP90, lat.Samples, lat.TotalP50, lat.TotalP90, lat.TotalP99, 100*lat.InvalidFrac, 100*lat.stealFrac)
	r.set("decision_p50_ms", lat.WinP50)
	r.set("decision_p90_ms", lat.WinP90)
	runtime.GC() // the capacity servers start from this step's heap otherwise

	// Five capacity steps, each on a fresh server, so that the process's
	// peak memory is the largest of five heaps rather than wherever one
	// heap's collection cycle stood. The figure is the top decile across the
	// 100 ms windows of all five (~35): a collection cycle of the server
	// takes a window down by a third, the machine's speed shifts by a fifth
	// every few seconds without any time being reported stolen, and the
	// fastest windows are the ones the program had the machine in. Ten-run
	// sets of the steps' median windows spread 20% of their median on a busy
	// host, the top deciles 14%.
	var rates []float64
	for i := 0; i < capacitySteps; i++ {
		capacity, err := validStep(r, streamStep{name: "capacity", jobs: max(int(capJobs), 2*closedFrame)}, r.traced())
		if err != nil {
			return err
		}
		rates = append(rates, capacity.Rates...)
		r.note("capacity step %d: median window %.0f jobs/s, whole step %.0f jobs/s, %.2f%% of the machine stolen",
			i, median(capacity.Rates), float64(capacity.Offered)/capacity.WallS, 100*capacity.stealFrac)
		runtime.GC()
	}
	sort.Float64s(rates)
	r.set("jobs_per_s", quantile(rates, 1-calmRateShare))
	// The baseline run over the latency step's trace comes after the memory
	// high-water mark is read: it is the benchmark's, not the server's.
	r.markPeak()
	jobs, err := lat.jobs(r.seed)
	if err != nil {
		return err
	}
	if err := reportQuality(r, lat.world, jobs, lat.result); err != nil {
		return err
	}
	if !r.traced() {
		return nil
	}

	// The tracing overhead on the primary metric: a plain latency step
	// against the traced one, and once more if the first pair is over.
	pairs, traced := []float64(nil), lat
	for len(pairs) < 2 {
		plain, err := validStep(r, openStep("r12000", rate, r.seconds*latShare), false)
		if err != nil {
			return err
		}
		pairs = append(pairs, (traced.WinP50-plain.WinP50)/plain.WinP50)
		if !allOver(pairs) {
			break
		}
		if traced, err = validStep(r, openStep("r12000", rate, r.seconds*latShare), true); err != nil {
			return err
		}
	}
	r.setOverhead(pairs)

	fast, err := validStep(r, openStep("r24000", 2*rate, r.seconds*0.12), true)
	if err != nil {
		return err
	}
	r.set("client.r24000.decision_p50_ms", fast.WinP50)
	r.set("client.r24000.decision_p90_ms", fast.WinP90)
	r.set("client.r24000.failed_frac", float64(fast.Failed)/float64(fast.Offered))

	r.set("client.late_p99_ms", lat.LateP99)
	r.set("client.late_raw_p99_ms", lat.RawLateP99)
	r.set("client.invalid_segment_frac", lat.InvalidFrac)
	r.set("host.steal_frac", lat.stealFrac)
	r.set("client.jobs_per_frame", float64(lat.Offered)/float64(lat.Frames))
	r.set("client.decision_whole_p50_ms", lat.TotalP50)
	r.set("client.decision_whole_p90_ms", lat.TotalP90)
	r.set("client.decision_p99_ms", lat.TotalP99)
	r.set("client.decision_p999_ms", lat.TotalP999)
	r.set("client.within_10ms_frac", lat.Within)
	r.set("client.samples", float64(lat.Samples))
	r.set("wire.submit_rtt_p50_ms", lat.RttP50)
	r.set("server.send_to_decided_p50_ms", lat.ServerP50)
	r.set("server.send_to_decided_p90_ms", lat.ServerP90)
	r.set("server.push_lag_p50_ms", lat.PushP50)
	r.set("server.push_lag_p90_ms", lat.PushP90)
	r.set("server.latency_reconcile_frac", (lat.LateP50+lat.ServerP50+lat.PushP50-lat.TotalP50)/lat.TotalP50)
	r.set("server.rounds", float64(lat.status.Rounds))
	r.set("server.jobs_per_round", float64(lat.status.Decisions)/float64(max(lat.status.Rounds, 1)))
	if lat.status.Obs != nil {
		r.set("server.round_p50_ms", lat.status.Obs.RoundP50Ms)
	}
	r.set("server.stage.ingest_s", lat.stages[obs.StageIngest])
	r.set("server.stage.solve_s", lat.stages[obs.StageSolve])
	r.set("server.stage.wal_append_s", lat.stages[obs.StageWALAppend])
	r.set("server.stage.wal_fsync_s", lat.stages[obs.StageWALFsync])
	r.set("server.stage.publish_s", lat.stages[obs.StagePublish])
	r.set("server.page_ns_per_decision", lat.pageNs)
	if st := lat.status.Solver; st != nil {
		r.set("milp.nodes", float64(st.Nodes))
		r.set("milp.warm_start_frac", st.WarmStartHitRate())
		r.set("lp.simplex_iters", float64(st.SimplexIters))
		r.set("lp.iters_per_round", float64(st.SimplexIters)/float64(max(lat.status.Rounds, 1)))
	}
	if err := wireProbes(r, jobs); err != nil {
		return err
	}
	return submitProbes(r, lat.world, jobs)
}
