package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/server"
	"waterwise/internal/trace"
)

const (
	durableDays  = 3   // Borg-like arrivals, paper-scale rate and durations
	httpBatch    = 512 // jobs per POST /v1/jobs
	pollEvery    = 5 * time.Millisecond
	drainTimeout = 2 * time.Minute
	// noSnapshots makes recovery a full replay of the log.
	noSnapshots = 1 << 30
)

// decisionsPage is the typed GET /v1/decisions reply.
type decisionsPage struct {
	Decisions []server.Decision `json:"decisions"`
	Next      uint64            `json:"next"`
}

// durableIter is what one iteration of durable-replay measured.
type durableIter struct {
	jobs      int
	submit    time.Duration // HTTP POSTs of the whole trace
	drain     time.Duration // Start -> every decision polled
	recovery  time.Duration // server.New over the crashed directory
	ackMs     []float64     // round trip of each 512-job POST
	lagMs     []float64     // DecidedWall -> poll that returned it
	wal       server.WALStatus
	recovered uint64
	digest    uint64
	result    *cluster.Result
	setupS    float64
	envS      float64
	genS      float64
	world     *world
	trace     []*trace.Job
}

// onRealDisk reports whether dir sits on a block device rather than tmpfs
// or ramfs, where an fsync costs nothing.
func onRealDisk(dir string) bool {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return false
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	return st.Type != tmpfsMagic && st.Type != ramfsMagic
}

// durableIteration runs one iteration: fresh data directory, the whole
// trace POSTed over one keep-alive connection, Start, decisions tailed by
// polling, Crash, and a timed recovery, whose log must equal the log before
// the crash field for field.
func durableIteration(r *run, spans *spanLog, it int) (*durableIter, error) {
	out := &durableIter{}
	root := spans.begin("iteration", -1, int64(it))
	defer spans.end(root)
	t0 := time.Now()
	days := max(1, int(float64(durableDays)*min(1, r.scale*7)))
	w, err := newWorld(r.seed, 35, days*24+72)
	if err != nil {
		return nil, err
	}
	out.world, out.envS = w, time.Since(t0).Seconds()
	g0 := time.Now()
	jobsPerDay := 23000.0
	if r.scale < 1 {
		jobsPerDay = max(2000, jobsPerDay*r.scale*7)
	}
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: simStart, Duration: time.Duration(days) * 24 * time.Hour,
		JobsPerDay: jobsPerDay, Regions: w.env.IDs(), DurationScale: 0.3, Seed: traceSeed(r.seed),
	})
	if err != nil {
		return nil, err
	}
	if jobs, err = quantize(jobs); err != nil {
		return nil, err
	}
	out.trace, out.jobs, out.genS = jobs, len(jobs), time.Since(g0).Seconds()
	// The request bodies are encoded up front: the timed POSTs then cost
	// this process only what the server does with them.
	var bodies [][]byte
	for i := 0; i < len(jobs); i += httpBatch {
		specs := make([]server.JobSpec, 0, httpBatch)
		for _, j := range jobs[i:min(i+httpBatch, len(jobs))] {
			specs = append(specs, specFor(j))
		}
		body, err := json.Marshal(specs)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}

	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.workDir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	config := func() (server.Config, error) {
		sched, err := servedScheduler()
		return server.Config{
			Env: w.env, Net: w.net, FP: w.fp, Scheduler: sched, Tolerance: tolerance,
			// The whole trace is queued before Start and the whole log is
			// compared after recovery, so neither ring may evict.
			QueueCap: len(jobs) + 1, DecisionLogCap: len(jobs) + 1,
			DataDir: dir, SnapshotEvery: noSnapshots,
		}, err
	}
	cfg, err := config()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	web := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = web.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	defer func() {
		_ = web.Close()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	// One request up front opens the keep-alive connection.
	if resp, err := client.Get(base + server.PathStatus); err != nil {
		return nil, err
	} else {
		resp.Body.Close()
	}
	out.setupS = time.Since(t0).Seconds()

	// Phase 1: POST the whole trace.
	phase := spans.begin("server.http_submit", root, int64(it))
	s0 := time.Now()
	for i, body := range bodies {
		p0 := time.Now()
		resp, err := client.Post(base+server.PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var reply server.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		want := min(httpBatch, len(jobs)-i*httpBatch)
		if resp.StatusCode != http.StatusAccepted || len(reply.Accepted) != want {
			return nil, fmt.Errorf("POST %d: status %d, %d of %d accepted: %s",
				i, resp.StatusCode, len(reply.Accepted), want, reply.Error)
		}
		if want == httpBatch {
			out.ackMs = append(out.ackMs, float64(time.Since(p0))/1e6)
		}
	}
	out.submit = time.Since(s0)
	spans.end(phase)

	// Phase 2: start the clock and tail the decision log by polling.
	phase = spans.begin("server.drain", root, int64(it))
	d0 := time.Now()
	srv.Start()
	seen := make(map[int]bool, len(jobs))
	var since uint64
	for len(seen) < len(jobs) {
		if time.Since(d0) > drainTimeout {
			return nil, fmt.Errorf("only %d of %d decisions after %v", len(seen), len(jobs), drainTimeout)
		}
		resp, err := client.Get(fmt.Sprintf("%s%s?since=%d", base, server.PathDecisions, since))
		if err != nil {
			return nil, err
		}
		var page decisionsPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		now := time.Now()
		for i := range page.Decisions {
			d := &page.Decisions[i]
			if d.Seq != since+uint64(i)+1 {
				return nil, fmt.Errorf("polled seq %d after %d", d.Seq, since+uint64(i))
			}
			if seen[d.JobID] {
				return nil, fmt.Errorf("job %d decided twice", d.JobID)
			}
			seen[d.JobID] = true
			out.lagMs = append(out.lagMs, float64(now.Sub(d.DecidedWall))/1e6)
		}
		since = page.Next
		time.Sleep(pollEvery)
	}
	out.drain = time.Since(d0)
	spans.end(phase)
	if st := srv.Status(); st.WAL != nil {
		out.wal = *st.WAL
	}

	// Phase 3: crash (no Drain, which would snapshot) and recover.
	srv.Crash()
	before := srv.Decisions(0, 0)
	out.result = srv.Result()
	cfg, err = config()
	if err != nil {
		return nil, err
	}
	phase = spans.begin("server.New(recover)", root, int64(it))
	r0 := time.Now()
	back, err := server.New(cfg)
	out.recovery = time.Since(r0)
	spans.end(phase)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer back.Stop()
	if st := back.Status(); st.WAL != nil {
		out.recovered = st.WAL.RecoveredRecords
	}
	after := back.Decisions(0, 0)
	if len(after) != len(before) || len(after) != len(jobs) {
		return nil, fmt.Errorf("recovered log has %d decisions, the crashed one %d, the trace %d jobs", len(after), len(before), len(jobs))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.Seq != b.Seq || a.JobID != b.JobID || a.Region != b.Region || !a.Round.Equal(b.Round) ||
			!a.Start.Equal(b.Start) || !a.Finish.Equal(b.Finish) || a.CarbonG != b.CarbonG ||
			a.WaterL != b.WaterL || !a.DecidedWall.Equal(b.DecidedWall) {
			return nil, fmt.Errorf("recovered decision %d is %+v, was %+v", i, a, b)
		}
	}
	out.digest = resultDigest(out.result)
	return out, nil
}

// runDurableReplay is the durability workload: the server layer used
// through HTTP/JSON and polling, and the write-ahead log used both ways —
// append and fsync while serving, sequential read on recovery.
func runDurableReplay(r *run) error {
	var (
		rates, recoveries, submits, drains []float64
		ackP50, ackP90, lagMs              []float64
		acks                               int
		last                               *durableIter
		probe                              *runtimeProbe
		jobs                               int
	)
	lp := &loop{r: r}
	for it := 0; lp.next(); it++ {
		if r.traced() && it == 0 {
			probe = startRuntimeProbe()
		}
		if last != nil {
			last.result, last.trace, last.world = nil, nil, nil // one iteration's data at a time
		}
		cur, err := durableIteration(r, lp.spans(), it)
		if err != nil {
			return err
		}
		if it > 0 && cur.digest != last.digest {
			return fmt.Errorf("iteration %d decided differently from iteration %d", it, it-1)
		}
		r.offered(cur.jobs, 0)
		r.setups = append(r.setups, cur.setupS)
		window := cur.submit + cur.drain
		lp.done(window + cur.recovery)
		jobs += cur.jobs
		rates = append(rates, float64(cur.jobs)/window.Seconds())
		recoveries = append(recoveries, cur.recovery.Seconds())
		submits = append(submits, cur.submit.Seconds())
		drains = append(drains, cur.drain.Seconds())
		ack := summarize(cur.ackMs)
		ackP50, ackP90 = append(ackP50, ack.P50), append(ackP90, quantile(cur.ackMs, 0.9))
		acks += ack.N
		lagMs = append(lagMs, cur.lagMs...)
		last = cur
		runtime.GC() // so that peak RSS is one iteration's, whatever the collector's timing
	}
	// The served log must be the offline replay of the same trace. The
	// reference run comes after the memory high-water mark is read, on the
	// last iteration (every iteration's digest matched it).
	r.markPeak()
	sched, err := servedScheduler()
	if err != nil {
		return err
	}
	want, err := cluster.Run(last.world.clusterConfig(), sched, last.trace)
	if err != nil {
		return err
	}
	if err := checkResult(last.result, last.jobs, last.world.env); err != nil {
		return err
	}
	if resultDigest(want) != last.digest {
		return fmt.Errorf("served decisions differ from offline cluster.Run on the same trace")
	}
	if err := reportQuality(r, last.world, last.trace, last.result); err != nil {
		return err
	}
	if probe != nil {
		probe.finish(r, jobs)
	}
	lag := summarize(lagMs)
	r.note("%d iterations, %d acknowledged %d-job POSTs; per iteration the p50 and p90 of their round trip", len(rates), acks, httpBatch)
	r.note("decided -> polled: n=%d p50=%.3f ms p%g=%.3f ms", lag.N, lag.P50, 100*lag.TopQ, lag.Top)
	r.set("jobs_per_s", faster(rates, higher))
	r.set("decision_p50_ms", faster(ackP50, lower))
	r.set("decision_p90_ms", faster(ackP90, lower))
	r.set("server.poll_lag_p50_ms", lag.P50)
	r.set("server.poll_lag_p90_ms", quantile(lagMs, 0.9))
	r.set("recovery_s", faster(recoveries, lower))
	r.set("region.env_s", last.envS)
	r.set("trace.gen_s", last.genS)
	r.set("server.http_submit_s", faster(submits, lower))
	r.set("server.drain_s", faster(drains, lower))
	r.set("wal.records", float64(last.wal.Appended))
	r.set("wal.fsyncs", float64(last.wal.Fsyncs))
	r.set("wal.fsync_p50_ms", float64(last.wal.FsyncP50)/1e6)
	r.set("wal.fsync_p99_ms", float64(last.wal.FsyncP99)/1e6)
	r.set("wal.bytes_per_decision", float64(last.wal.Bytes)/float64(last.jobs))
	r.set("wal.recover_records_per_s", float64(last.recovered)/faster(recoveries, lower))
	if onRealDisk(r.workDir) {
		r.set("wal.on_real_disk", 1)
	}
	if r.traced() {
		r.setOverhead(lp.pairs())
		return walProbes(r, int(last.wal.Bytes/int64(max(last.wal.Appended, 1))))
	}
	return nil
}
