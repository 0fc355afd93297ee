// Command loadgen drives a running waterwised with an open-loop arrival
// stream and reports achieved throughput and decision latency.
//
// It synthesizes arrivals with the same generators the offline traces use
// (Borg-like diurnal Poisson or Alibaba-like Markov-modulated bursts),
// compresses the arrival offsets into the requested wall-clock window, and
// POSTs jobs to /v1/jobs at their scheduled instants regardless of how the
// service keeps up — open loop, so backpressure (429) shows up as rejected
// jobs rather than a slowed generator. A concurrent poller tails
// /v1/decisions and matches decisions to submissions for latency
// percentiles.
//
// With -protocol stream the same open-loop schedule drives the binary
// wire protocol (internal/wire) instead: one persistent connection
// carries batched Submit frames and server-pushed Decisions frames,
// reaching rates HTTP request-per-batch cannot. Latency matching is
// shared — pushed and polled decisions feed one matcher and one
// percentile path — and stream backpressure (per-job queue-full reply
// codes) is counted as rejected, exactly like HTTP 429.
//
// The service is one endpoint — a waterwised with any -shards count routes
// jobs by home region itself. The regions to draw homes from come from
// its /v1/status.
//
// Usage:
//
//	loadgen [flags]
//
//	-url       service base URL; status and metrics are read here
//	           in both protocols          (default http://127.0.0.1:8080)
//	-protocol  transport for submits and decisions: http
//	           (POST /v1/jobs + poll /v1/decisions) or stream
//	           (persistent binary connection, internal/wire)
//	                                         (default http)
//	-stream-addr  the service's stream address, host:port (its
//	           waterwised -stream-addr); required with -protocol stream
//	-rate      offered arrival rate, jobs/s  (default 100)
//	-duration  wall-clock load window        (default 10s)
//	-trace     borg|alibaba                  (default borg)
//	-batch     max jobs per POST             (default 64)
//	-poll      decision poll interval        (default 50ms)
//	-drain     extra wait for in-flight decisions after the window (default 30s)
//	-retries   extra POST attempts per batch on connection
//	           errors or 5xx; ids are client-assigned, so a
//	           replayed submit dedupes server-side instead of
//	           double-scheduling              (default 2)
//	-seed      generator seed                (default 7)
//	-gen-window  simulated-time span the arrivals are drawn from;
//	           sets how many scheduling rounds the jobs spread over
//	           in accelerated mode           (default 1h)
//	-trace-submits  send the trace's simulated submit times (replay
//	           mode) instead of letting the server stamp arrivals
//	           "now"; required for offered rates past the
//	           arrival-stamped solver ceiling (default false)
//	-id-base   base for client-assigned job ids; 0 derives one
//	           from the wall clock so successive runs against a
//	           long-lived daemon never collide. Set it explicitly
//	           (with -seed) for a bit-reproducible run against a
//	           fresh daemon.                 (default 0)
//	-timeseries  CSV file of periodic client-side latency
//	           percentile samples over the run; each row covers
//	           one sample interval             (default: off)
//	-sample    timeseries sample interval     (default 1s)
//	-json      machine-readable report
//	-co-gap-ms flag a coordinated-omission gap (client p99 -
//	           server p99) above this many ms (default 250)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"waterwise"
	"waterwise/internal/obs"
	"waterwise/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the machine-readable summary (-json).
type report struct {
	URL          string  `json:"url"`
	Protocol     string  `json:"protocol"`
	TraceStyle   string  `json:"trace_style"`
	NominalRate  float64 `json:"nominal_rate_jobs_per_sec"`
	OfferedRate  float64 `json:"offered_rate_jobs_per_sec"`
	WindowSec    float64 `json:"window_sec"`
	Offered      int     `json:"offered"`
	Accepted     int     `json:"accepted"`
	Rejected     int     `json:"rejected"`
	Errors       int     `json:"errors"`
	Retried      int     `json:"retried,omitempty"`
	Decided      int     `json:"decided"`
	DecisionsSec float64 `json:"decisions_per_sec"`
	RoundsSec    float64 `json:"rounds_per_sec"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
	// Unmatched counts observed decisions that match no job of this run:
	// another client's work, or an earlier run's when the start cursor
	// is wrong.
	Unmatched int `json:"unmatched_decisions"`
	// Server-side decision latency, scraped from the service's /metrics
	// histogram (the shard-merged waterwise_fleet_decision_latency_seconds)
	// at end of run. The server measures Submit acceptance to round
	// commit; the client measures send instant to observed decision —
	// their gap is queueing the server never sees.
	ServerLatencyP50Ms float64 `json:"server_latency_p50_ms,omitempty"`
	ServerLatencyP99Ms float64 `json:"server_latency_p99_ms,omitempty"`
	ServerLatencyCount uint64  `json:"server_latency_count,omitempty"`
	// CoordOmissionGapMs is client p99 minus server p99: the tail latency
	// the client experienced that the server-side histogram cannot see
	// (send-side queueing — the coordinated-omission blind spot of
	// server-only measurement). CoordOmissionFlagged marks a gap above
	// -co-gap-ms.
	CoordOmissionGapMs   float64 `json:"coordinated_omission_gap_ms,omitempty"`
	CoordOmissionFlagged bool    `json:"coordinated_omission_flagged,omitempty"`
}

// run parses args, drives the service, and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		baseURL    = fs.String("url", "http://127.0.0.1:8080", "service base URL (status and metrics are read here in both protocols)")
		protocol   = fs.String("protocol", "http", "transport for submits and decisions: http or stream")
		streamAddr = fs.String("stream-addr", "", "the service's binary streaming address, host:port (required with -protocol stream)")
		rate       = fs.Float64("rate", 100, "offered arrival rate (jobs/sec)")
		duration   = fs.Duration("duration", 10*time.Second, "wall-clock load window")
		style      = fs.String("trace", "borg", "arrival process: borg|alibaba")
		batch      = fs.Int("batch", 64, "max jobs per POST")
		poll       = fs.Duration("poll", 50*time.Millisecond, "decision poll interval")
		drain      = fs.Duration("drain", 30*time.Second, "extra wait for in-flight decisions")
		retries    = fs.Int("retries", 2, "extra POST attempts per batch on connection errors or 5xx")
		seed       = fs.Int64("seed", 7, "generator seed")
		genWindow  = fs.Duration("gen-window", time.Hour, "simulated-time span the arrivals are drawn from (sets how many scheduling rounds the jobs spread over)")
		traceSub   = fs.Bool("trace-submits", false, "send the trace's simulated submit times with each job (replay mode) instead of letting the server stamp arrivals \"now\"; spreads high offered rates across many small rounds")
		idBaseFlag = fs.Int("id-base", 0, "base for client-assigned job ids (0: derive from the wall clock)")
		tsFile     = fs.String("timeseries", "", "CSV file of periodic client-side latency percentile samples (empty: off)")
		sampleIv   = fs.Duration("sample", time.Second, "timeseries sample interval")
		jsonOut    = fs.Bool("json", false, "emit a JSON report")
		coGapMs    = fs.Float64("co-gap-ms", 250, "flag a coordinated-omission gap (client p99 - server p99) above this many ms")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns here

	switch *protocol {
	case "http":
	case "stream":
		if *streamAddr == "" {
			return fmt.Errorf("-protocol stream needs -stream-addr host:port")
		}
	default:
		return fmt.Errorf("unknown -protocol %q (want http or stream)", *protocol)
	}

	// Ask the service which regions it serves and where its counters and
	// decision log stand.
	client := &http.Client{Timeout: 30 * time.Second}
	start, err := getStatus(client, *baseURL)
	if err != nil {
		return fmt.Errorf("reaching %s: %w", *baseURL, err)
	}
	if len(start.Free) == 0 {
		return fmt.Errorf("%s reports no regions", *baseURL)
	}
	regions := make([]waterwise.RegionID, 0, len(start.Free))
	for id := range start.Free {
		regions = append(regions, id)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })

	// Generate arrivals over the generator window (simulated time) and
	// compress the offsets into the wall window, preserving the process's
	// burst structure. JobsPerDay is chosen so the window holds
	// rate*duration expected arrivals. The window also sets how many
	// scheduling rounds the jobs spread over in accelerated mode: high
	// offered rates want a wider window (say 24h), or every job lands in
	// a handful of simulated rounds and per-round solves balloon.
	wantJobs := *rate * duration.Seconds()
	cfg := trace.Config{
		Start:      time.Date(2023, 7, 3, 8, 12, 0, 0, time.UTC), // a weekday morning where diurnal x weekly modulation ≈ 1
		Duration:   *genWindow,
		JobsPerDay: wantJobs * (24 * time.Hour).Seconds() / genWindow.Seconds(),
		Regions:    regions,
		Seed:       *seed,
	}
	var jobs []*trace.Job
	switch *style {
	case "borg":
		jobs, err = trace.GenerateBorgLike(cfg)
	case "alibaba":
		jobs, err = trace.GenerateAlibabaLike(cfg)
	default:
		return fmt.Errorf("unknown trace style %q", *style)
	}
	if err != nil {
		return err
	}
	compress := float64(*duration) / float64(*genWindow)
	// Client-assigned ids: the trace's ids offset by a base, so
	// consecutive loadgen runs against one long-lived daemon never
	// re-present an id from an earlier run. Within a run the ids are what
	// make retries idempotent (the service dedupes a replayed submit).
	// The default wall-derived base is what makes back-to-back runs safe;
	// -id-base pins it so a run is bit-reproducible (same -seed, same
	// -id-base, fresh daemon => identical submitted ids).
	idBase := *idBaseFlag
	if idBase == 0 {
		idBase = int(time.Now().UnixMicro())
	}

	// Latency matching is shared by both transports: the HTTP poller and
	// the stream reader feed the same matcher, so pushed and polled
	// decisions go through one percentile path.
	m := newMatcher()
	var (
		mu  sync.Mutex
		rep = report{URL: *baseURL, Protocol: *protocol, TraceStyle: *style, NominalRate: *rate, Offered: len(jobs)}
	)
	account := func(acc, rej, errs int) {
		mu.Lock()
		rep.Accepted += acc
		rep.Rejected += rej
		rep.Errors += errs
		mu.Unlock()
	}

	// Decision intake. HTTP: a poller tails /v1/decisions. Stream: a
	// persistent connection is dialed now, and its reader goroutine
	// receives server pushes for the whole run. Either way the cursor
	// starts past the service's pre-existing decisions: earlier loadgen
	// runs against the same daemon must not be matched (or counted) as
	// this run's work.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	var st *streamConn
	if *protocol == "stream" {
		if st, err = dialStream(*streamAddr, start.LastSeq, m, account); err != nil {
			return fmt.Errorf("stream dial %s: %w", *streamAddr, err)
		}
		defer st.nc.Close()
	} else {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			cursor := start.LastSeq
			for {
				ds, next, err := getDecisions(client, *baseURL, cursor)
				if err == nil {
					cursor = next
					for _, d := range ds {
						m.Decided(d.JobID, d.DecidedWall)
					}
				}
				select {
				case <-stopPoll:
					return
				case <-time.After(*poll):
				}
			}
		}()
	}

	// Timeseries sampler: every -sample interval, emit one CSV row of
	// client-side percentiles over the decisions observed in that interval
	// — the run's latency trajectory rather than one end-of-run summary,
	// so a mid-run stall (a fault window, a restarting shard) is visible
	// as a bump instead of being averaged away.
	var tsWG sync.WaitGroup
	if *tsFile != "" {
		f, err := os.Create(*tsFile)
		if err != nil {
			return fmt.Errorf("timeseries file: %w", err)
		}
		fmt.Fprintln(f, "elapsed_sec,decided_total,interval_decisions,p50_ms,p90_ms,p99_ms")
		tsWG.Add(1)
		go func() {
			defer tsWG.Done()
			defer f.Close()
			start := time.Now()
			lastN := 0
			sample := func() {
				window, n, decided := m.Window(lastN)
				lastN = n
				elapsed := time.Since(start).Seconds()
				if len(window) == 0 {
					fmt.Fprintf(f, "%.3f,%d,0,,,\n", elapsed, decided)
					return
				}
				sort.Float64s(window)
				fmt.Fprintf(f, "%.3f,%d,%d,%.3f,%.3f,%.3f\n",
					elapsed, decided, len(window),
					percentile(window, 0.50), percentile(window, 0.90), percentile(window, 0.99))
			}
			for {
				select {
				case <-stopPoll:
					sample() // final partial interval, so the tail is never lost
					return
				case <-time.After(*sampleIv):
					sample()
				}
			}
		}()
	}

	// One sender goroutine fed through a buffered queue: the open-loop
	// schedule keeps walking even when the service is slow or hung — its
	// batches pile into the queue (dropped as errors once full) instead
	// of stalling the schedule.
	sendCh := make(chan []waterwise.JobSpec, 1024)
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for specs := range sendCh {
			if st != nil {
				// Stream: one Submit frame per batch; the reader does the
				// accept/reject accounting when the reply comes back, so a
				// send only fails here when the connection is already known
				// broken or the batch cannot encode.
				if err := st.send(specs); err != nil {
					account(0, 0, len(specs))
				}
				continue
			}
			sent := time.Now() // open-loop submission instant, pre-request
			ids, code, err := postJobs(client, *baseURL, specs)
			// Re-POST on connection errors and 5xx (a restarting
			// service): the specs carry client-assigned ids, so a batch
			// that did reach the server before the failure dedupes to its
			// original jobs — the retry is idempotent, never a
			// double-schedule.
			for attempt := 0; attempt < *retries && (err != nil || code >= 500); attempt++ {
				mu.Lock()
				rep.Retried += len(specs)
				mu.Unlock()
				time.Sleep(time.Duration(attempt+1) * 100 * time.Millisecond)
				ids, code, err = postJobs(client, *baseURL, specs)
			}
			switch {
			case err != nil:
				account(0, 0, len(specs))
			case code == http.StatusTooManyRequests:
				account(len(ids), len(specs)-len(ids), 0)
			case code != http.StatusAccepted:
				account(len(ids), 0, len(specs)-len(ids))
			default:
				account(len(ids), 0, 0)
			}
			m.SentBatch(ids, sent)
		}
	}()

	// Open-loop sender: walk the compressed schedule, batching jobs that
	// are due together.
	t0 := time.Now()
	due := func(j *trace.Job) time.Time {
		return t0.Add(time.Duration(float64(j.Submit.Sub(cfg.Start)) * compress))
	}
	for i := 0; i < len(jobs); {
		if wait := time.Until(due(jobs[i])); wait > 0 {
			time.Sleep(wait)
		}
		// Everything due by now, capped at the batch size.
		j, now := i+1, time.Now()
		for j < len(jobs) && j-i < *batch && !due(jobs[j]).After(now) {
			j++
		}
		specs := make([]waterwise.JobSpec, 0, j-i)
		for _, job := range jobs[i:j] {
			// Ids come from the trace (globally unique), not the service:
			// a retried batch must present the same ids to dedupe.
			id := idBase + job.ID
			spec := waterwise.JobSpec{
				ID: &id, Benchmark: job.Benchmark, Home: job.Home,
				DurationSec:    job.Duration.Seconds(),
				EnergyKWh:      float64(job.Energy),
				EstDurationSec: job.EstDuration.Seconds(),
				EstEnergyKWh:   float64(job.EstEnergy),
			}
			if *traceSub {
				// Replay mode: the job arrives at its trace instant in
				// simulated time, so an offered burst spreads over
				// gen-window's worth of small rounds instead of being
				// stamped into a handful of giant ones. Without this,
				// arrival-stamped rounds grow with the backlog and the
				// solver — not the transport — becomes the ceiling.
				spec.Submit = job.Submit
			}
			specs = append(specs, spec)
		}
		select {
		case sendCh <- specs:
		default:
			// The queue is full (the service is hung or far behind the
			// offered rate): drop the batch as errors rather than block
			// the schedule.
			account(0, 0, len(specs))
		}
		i = j
	}
	close(sendCh)
	sendWG.Wait()
	sendWindow := time.Since(t0)

	// Let in-flight decisions land: wait until everything accepted has
	// decided or the drain budget runs out. In stream mode the replies
	// must settle first, so Accepted is final before it gates the drain.
	drainDeadline := time.Now().Add(*drain)
	if st != nil {
		st.waitReplies(drainDeadline)
	}
	for time.Now().Before(drainDeadline) {
		mu.Lock()
		accepted := rep.Accepted
		mu.Unlock()
		if m.DecidedCount() >= accepted {
			break
		}
		time.Sleep(*poll)
	}
	close(stopPoll)
	pollWG.Wait()
	tsWG.Wait()
	if st != nil {
		account(0, 0, st.close()) // submitted but never replied to
	}

	// Final stats: rounds and the shards' summed solver counters.
	end, err := getStatus(client, *baseURL)
	if err != nil {
		return err
	}
	// The throughput window runs from the first submission to the last
	// observed decision (falling back to now if nothing decided).
	lats, decided, lastDecided := m.Results()
	rep.Decided, rep.Unmatched = decided, m.Unmatched()
	window := time.Since(t0)
	if !lastDecided.IsZero() && lastDecided.After(t0) {
		window = lastDecided.Sub(t0)
	}
	rep.WindowSec = sendWindow.Seconds()
	rep.OfferedRate = float64(rep.Offered) / sendWindow.Seconds()
	rep.DecisionsSec = float64(rep.Decided) / window.Seconds()
	rep.RoundsSec = float64(end.Rounds-start.Rounds) / window.Seconds()
	sort.Float64s(lats)
	rep.LatencyP50Ms = percentile(lats, 0.50)
	rep.LatencyP90Ms = percentile(lats, 0.90)
	rep.LatencyP99Ms = percentile(lats, 0.99)
	if len(lats) > 0 {
		rep.LatencyMaxMs = lats[len(lats)-1]
	}

	// Server-side view: scrape the service's /metrics histogram.
	// Best-effort — a failed scrape just leaves these fields zero.
	if les, cums, ok := scrapeDecisionLatency(client, *baseURL); ok {
		rep.ServerLatencyP50Ms = 1e3 * obs.QuantileFromBuckets(les, cums, 0.50)
		rep.ServerLatencyP99Ms = 1e3 * obs.QuantileFromBuckets(les, cums, 0.99)
		rep.ServerLatencyCount = cums[len(cums)-1]
		rep.CoordOmissionGapMs = rep.LatencyP99Ms - rep.ServerLatencyP99Ms
		rep.CoordOmissionFlagged = rep.CoordOmissionGapMs > *coGapMs
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "loadgen: %s trace over %s, offered %d jobs in %.1fs (%.1f/s nominal %.0f/s)\n",
		rep.TraceStyle, rep.Protocol, rep.Offered, rep.WindowSec, rep.OfferedRate, rep.NominalRate)
	fmt.Fprintf(stdout, "  accepted %d, rejected %d (backpressure), errors %d, retried %d\n",
		rep.Accepted, rep.Rejected, rep.Errors, rep.Retried)
	fmt.Fprintf(stdout, "  decided %d (%.1f decisions/s, %.1f rounds/s)\n", rep.Decided, rep.DecisionsSec, rep.RoundsSec)
	fmt.Fprintf(stdout, "  decision latency ms: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n",
		rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms, rep.LatencyMaxMs)
	if rep.ServerLatencyCount > 0 {
		fmt.Fprintf(stdout, "  server-side (scraped) ms: p50 %.1f  p99 %.1f over %d decisions\n",
			rep.ServerLatencyP50Ms, rep.ServerLatencyP99Ms, rep.ServerLatencyCount)
		co := ""
		if rep.CoordOmissionFlagged {
			co = fmt.Sprintf("  — ABOVE the %.0fms threshold: the client queue hid latency the server never saw", *coGapMs)
		}
		fmt.Fprintf(stdout, "  coordinated-omission gap (client p99 - server p99): %.1fms%s\n", rep.CoordOmissionGapMs, co)
	}
	return nil
}

// scrapeDecisionLatency fetches the service's /metrics and returns the
// cumulative (le, count) buckets of its shard-merged decision-latency
// histogram.
func scrapeDecisionLatency(c *http.Client, base string) (les []float64, cums []uint64, ok bool) {
	fams, err := getMetrics(c, base)
	if err != nil {
		return nil, nil, false
	}
	fam := fams["waterwise_fleet_decision_latency_seconds"]
	if fam == nil {
		return nil, nil, false
	}
	les, cums = obs.HistogramBuckets(fam, nil)
	return les, cums, len(cums) > 0
}

// getMetrics fetches and strictly parses the service's /metrics exposition.
func getMetrics(c *http.Client, base string) (map[string]*obs.PromFamily, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return obs.ParseProm(data)
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func getStatus(c *http.Client, base string) (*waterwise.ServerStatus, error) {
	resp, err := c.Get(base + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st waterwise.ServerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func getDecisions(c *http.Client, base string, since uint64) ([]waterwise.ServerDecision, uint64, error) {
	resp, err := c.Get(fmt.Sprintf("%s/v1/decisions?since=%d", base, since))
	if err != nil {
		return nil, since, err
	}
	defer resp.Body.Close()
	var body struct {
		Decisions []waterwise.ServerDecision `json:"decisions"`
		Next      uint64                     `json:"next"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, since, err
	}
	return body.Decisions, body.Next, nil
}

func postJobs(c *http.Client, base string, specs []waterwise.JobSpec) ([]int, int, error) {
	payload, err := json.Marshal(specs)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Accepted []int  `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, resp.StatusCode, err
	}
	return body.Accepted, resp.StatusCode, nil
}
