// Command waterwised is the WaterWise scheduling daemon: the long-running
// form of the Optimization Decision Controller. It serves an HTTP/JSON API —
// POST /v1/jobs, GET /v1/decisions, GET /v1/status, GET /metrics — ingests
// streaming job arrivals into a bounded queue, micro-batches them into
// scheduling rounds on a configurable cadence, and places them with the
// same MILP scheduler stack the offline replay uses (cross-round warm
// starts on by default).
//
// The service runs -shards N scheduler shards in one process (one by
// default), each owning a disjoint partition of the environment's regions;
// jobs are routed by home region, the shards' decision logs are merged
// into one globally seq-numbered stream, and metrics are labeled per
// shard.
//
// The environment's grid/weather signals come from a pluggable feed
// (-feed): the deterministic synthetic generators (default), a recorded
// trace file ("replay:<file>", captured with -record), or an
// electricityMaps-style HTTP API ("live:<url>", token from
// WATERWISE_FEED_TOKEN) with TTL caching and stale/forecast fallback.
// Feed health is surfaced in /v1/status and /metrics.
//
// Usage:
//
//	waterwised [flags]
//
//	-addr          listen address                            (default :8080)
//	-stream-addr   also serve the persistent-connection
//	               binary streaming protocol (internal/wire)
//	               on this TCP address: batched submits,
//	               pushed decisions, cursor resume — the
//	               100k+/s ingest path (default: off)
//	-round         scheduling round cadence in sim time      (default 1m)
//	-timescale     simulated seconds per wall second; 0 runs
//	               accelerated (rounds back to back)         (default 1)
//	-tolerance     delay tolerance fraction                  (default 0.5)
//	-lambda-carbon λ_CO2 objective weight (λ_H2O = 1-λ_CO2)  (default 0.5)
//	-regions       comma-separated region subset             (default: all five)
//	-shards        scheduler shard count, at least 1          (default 1)
//	-shard-map     region=shard pins, e.g. "zurich=0,mumbai=1"
//	               (unpinned regions dealt to emptiest shard)
//	-feed          environment feed: "synthetic",
//	               "replay:<file>", or "live:<url>"          (default synthetic)
//	-record        write the feed to a trace file and exit
//	               (.json or .csv; replay it with -feed)
//	-horizon-hours environment series horizon; 0 = auto
//	               (96, or a replay trace's recorded span)   (default 0)
//	-queue-cap     ingest queue bound (backpressure)         (default 65536)
//	-decision-log  decision log ring capacity                (default 65536)
//	-data-dir      durable state directory: write-ahead log
//	               + snapshots; restart recovers it and
//	               resumes decision-identical (default: off)
//	-snapshot-every snapshot cadence in rounds               (default 256)
//	-wri           use the WRI-style water dataset
//	-seed          environment RNG seed                      (default 7)
//	-log-level     log threshold: debug, info, warn, error   (default info)
//	-log-format    log encoding: text or json                (default text)
//	-debug-addr    serve net/http/pprof on this address
//	               (default: off)
//	-record-metrics keep a bounded in-process time-series
//	               history of /metrics, scraped on the round clock;
//	               query it with GET /v1/query (default: off)
//	-record-budget-mb memory budget for recorded history; the
//	               oldest window is evicted past it (default 8)
//	-record-interval minimum wall-clock spacing between recorder
//	               scrapes; accelerated rounds coalesce to the
//	               newest one per interval (default 250ms, 0 =
//	               scrape every round)
//	-slo           comma-separated SLO objectives with
//	               multi-window burn-rate alerting on the
//	               recorded history (implies -record-metrics):
//	               "availability:0.999" alerts on the rejected/
//	               accepted ratio; "latency:0.99@250ms" alerts
//	               when under 99% of decisions beat 250ms.
//	               Each kind at most once. Alert states at
//	               GET /v1/alerts.
package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flag"

	"waterwise"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "waterwised:", err)
		os.Exit(1)
	}
}

// splitRegions parses a comma-separated region list.
func splitRegions(csv string) []waterwise.RegionID {
	var out []waterwise.RegionID
	for _, r := range strings.Split(csv, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, waterwise.RegionID(r))
		}
	}
	return out
}

// applyFeedFlag parses the -feed spec ("synthetic", "replay:<file>",
// "live:<url>") into the environment config.
func applyFeedFlag(cfg *waterwise.EnvironmentConfig, spec string) error {
	src, arg, _ := strings.Cut(spec, ":")
	switch src {
	case "", string(waterwise.FeedSynthetic):
		if arg != "" {
			return fmt.Errorf("-feed synthetic takes no argument (got %q)", arg)
		}
	case string(waterwise.FeedReplay):
		if arg == "" {
			return fmt.Errorf("-feed replay needs a trace file: replay:<file>")
		}
		cfg.Source = waterwise.FeedReplay
		cfg.FeedPath = arg
	case string(waterwise.FeedLive):
		if arg == "" {
			return fmt.Errorf("-feed live needs a base URL: live:<url>")
		}
		cfg.Source = waterwise.FeedLive
		cfg.FeedURL = arg
	default:
		return fmt.Errorf("unknown -feed source %q (want synthetic, replay:<file>, or live:<url>)", src)
	}
	return nil
}

// parseSLOs parses the -slo grammar into SLO objectives. Two forms,
// comma-separated:
//
//	availability:<target>        — ratio objective over the rejected /
//	                               accepted job counters
//	latency:<target>@<threshold> — latency objective over the decision
//	                               latency histogram (e.g. 0.99@250ms)
//
// Latency objectives read the shard-merged decision latency histogram.
func parseSLOs(csv string) ([]waterwise.SLOObjective, error) {
	var out []waterwise.SLOObjective
	for _, spec := range strings.Split(csv, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		kind, arg, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("-slo entry %q is not kind:target", spec)
		}
		switch kind {
		case "availability":
			target, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("-slo %q: bad target: %v", spec, err)
			}
			out = append(out, waterwise.SLOObjective{
				Name: "availability", Target: target,
				Bad:  "waterwise_jobs_rejected_total",
				Good: "waterwise_jobs_accepted_total",
			})
		case "latency":
			targetStr, threshStr, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("-slo %q: latency wants target@threshold, e.g. latency:0.99@250ms", spec)
			}
			target, err := strconv.ParseFloat(targetStr, 64)
			if err != nil {
				return nil, fmt.Errorf("-slo %q: bad target: %v", spec, err)
			}
			thresh, err := time.ParseDuration(threshStr)
			if err != nil {
				return nil, fmt.Errorf("-slo %q: bad threshold: %v", spec, err)
			}
			out = append(out, waterwise.SLOObjective{
				Name: "latency", Target: target,
				Family:      "waterwise_fleet_decision_latency_seconds",
				ThresholdMs: float64(thresh) / float64(time.Millisecond),
			})
		default:
			return nil, fmt.Errorf("unknown -slo kind %q (want availability or latency)", kind)
		}
	}
	for _, o := range out {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("-slo: %v", err)
		}
	}
	return out, nil
}

// parseShardMap parses "region=shard" pins; a region pinned twice is an
// error rather than last-pin-wins.
func parseShardMap(csv string) (map[waterwise.RegionID]int, error) {
	if csv == "" {
		return nil, nil
	}
	out := make(map[waterwise.RegionID]int)
	for _, pin := range strings.Split(csv, ",") {
		name, idx, ok := strings.Cut(strings.TrimSpace(pin), "=")
		if !ok {
			return nil, fmt.Errorf("shard map entry %q is not region=shard", pin)
		}
		n, err := strconv.Atoi(idx)
		if err != nil {
			return nil, fmt.Errorf("shard map entry %q: %v", pin, err)
		}
		id := waterwise.RegionID(strings.TrimSpace(name))
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("shard map pins region %q more than once", id)
		}
		out[id] = n
	}
	return out, nil
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		streamAddr  = flag.String("stream-addr", "", "also serve the binary streaming protocol on this TCP address (empty = off)")
		round       = flag.Duration("round", time.Minute, "scheduling round cadence (simulated time)")
		timescale   = flag.Float64("timescale", 1, "simulated seconds per wall second; 0 = accelerated")
		tolerance   = flag.Float64("tolerance", 0.5, "delay tolerance fraction")
		lambdaC     = flag.Float64("lambda-carbon", 0.5, "carbon objective weight (water gets 1-x)")
		regionsCSV  = flag.String("regions", "", "comma-separated region subset")
		shards      = flag.Int("shards", 1, "scheduler shard count (at least 1)")
		shardMapCSV = flag.String("shard-map", "", "region=shard pins, e.g. zurich=0,mumbai=1")
		feedSpec    = flag.String("feed", "synthetic", `environment feed: "synthetic", "replay:<file>", or "live:<url>"`)
		record      = flag.String("record", "", "write the environment feed to this trace file (.json or .csv) and exit")
		horizon     = flag.Int("horizon-hours", 0, "environment series horizon in hours (0 = auto: 96, or a replay trace's recorded span)")
		queueCap    = flag.Int("queue-cap", 0, "ingest queue bound (0 = default 65536)")
		decisionLog = flag.Int("decision-log", 0, "decision log ring capacity (0 = default 65536)")
		dataDir     = flag.String("data-dir", "", "durable state directory (write-ahead log + snapshots); empty = in-memory only")
		snapEvery   = flag.Int("snapshot-every", 0, "snapshot cadence in rounds (0 = default 256)")
		wri         = flag.Bool("wri", false, "use the WRI-style water dataset")
		seed        = flag.Int64("seed", 7, "environment RNG seed")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
		logFormat   = flag.String("log-format", "text", "log encoding: text or json")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		recordTS    = flag.Bool("record-metrics", false, "keep a bounded in-process time-series history of /metrics (query via /v1/query)")
		recordMB    = flag.Int("record-budget-mb", 0, "memory budget in MiB for recorded metrics history (0 = default 8)")
		recordIv    = flag.Duration("record-interval", 250*time.Millisecond, "minimum wall-clock spacing between recorder scrapes (0 = every round)")
		sloCSV      = flag.String("slo", "", `SLO objectives with burn-rate alerting, e.g. "availability:0.999,latency:0.99@250ms" (implies -record-metrics)`)
	)
	flag.Parse()

	log, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(log)
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", *shards)
	}
	shardMap, err := parseShardMap(*shardMapCSV)
	if err != nil {
		return err
	}
	if shardMap != nil && *shards == 1 {
		return fmt.Errorf("-shard-map needs -shards > 1 (got -shards %d)", *shards)
	}

	if *debugAddr != "" {
		// pprof on its own listener, never the service address: profiling
		// endpoints stay off the data path and can bind localhost-only.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Info("pprof listening", "addr", *debugAddr)
			if err := newHTTPServer(*debugAddr, mux).ListenAndServe(); err != nil {
				log.Error("pprof server failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	envCfg := waterwise.EnvironmentConfig{
		Regions:         splitRegions(*regionsCSV),
		HorizonHours:    *horizon,
		UseWRIWaterData: *wri,
		Seed:            *seed,
	}
	if err := applyFeedFlag(&envCfg, *feedSpec); err != nil {
		return err
	}
	env, err := waterwise.NewEnvironment(envCfg)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := env.RecordFeed(*record); err != nil {
			return err
		}
		log.Info("recorded feed trace", "provider", env.FeedHealth().Provider,
			"regions", len(env.Regions()), "hours", env.HorizonHours(), "file", *record,
			"replay_with", "-feed replay:"+*record)
		return nil
	}
	// -slo without -record-metrics would have nothing to evaluate burn
	// rates over, so objectives imply recording.
	slos, err := parseSLOs(*sloCSV)
	if err != nil {
		return err
	}
	var rec *waterwise.RecordConfig
	if *recordTS || len(slos) > 0 {
		rec = &waterwise.RecordConfig{
			MemoryBudgetBytes: *recordMB << 20,
			MinInterval:       *recordIv,
			SLOs:              slos,
			Logf: func(format string, args ...any) {
				slog.Info(fmt.Sprintf(format, args...))
			},
		}
	}
	srv, err := waterwise.NewServer(env, waterwise.ServerConfig{
		Tolerance: *tolerance, Round: *round, TimeScale: *timescale,
		QueueCap: *queueCap, DecisionLogCap: *decisionLog,
		DataDir: *dataDir, SnapshotEvery: *snapEvery,
		Record: rec,
		Shards: *shards, ShardMap: shardMap,
		Scheduler: waterwise.SchedulerConfig{
			LambdaCarbon: *lambdaC,
			LambdaWater:  1 - *lambdaC,
		},
	})
	if err != nil {
		return err
	}
	mode := fmt.Sprintf("paced x%g", *timescale)
	if *timescale == 0 {
		mode = "accelerated"
	}
	st := srv.Status()
	log.Info("listening", "addr", *addr, "shards", st.Shards, "round", round.String(),
		"mode", mode, "tolerance", *tolerance)
	for _, ss := range st.ShardStatus {
		log.Info("shard", "shard", ss.Shard, "regions", fmt.Sprint(ss.Regions))
		logRecovery(log, ss.Shard, ss.WAL)
	}

	srv.Start()
	stopStream, err := startStream(log, *streamAddr, srv)
	if err != nil {
		srv.Stop()
		return err
	}
	err = serve(log, *addr, srv.Handler(), func() { stopStream(); srv.Stop() })
	st = srv.Status()
	log.Info("stopped", "rounds", st.Rounds, "decisions", st.Decisions,
		"merged", st.Merged, "lost", st.Lost, "accepted", st.Accepted,
		"rejected", st.Rejected, "unscheduled", st.Unscheduled)
	if st.Solver != nil {
		log.Info("solver totals", "wall", st.Solver.Wall.Round(time.Millisecond).String())
	}
	log.Info("latency", "decision_p50_ms", st.Obs.DecisionP50Ms,
		"decision_p99_ms", st.Obs.DecisionP99Ms, "solve_p99_ms", st.Obs.SolveP99Ms)
	for _, ss := range st.ShardStatus {
		log.Info("shard totals", "shard", ss.Shard, "rounds", ss.Rounds,
			"decisions", ss.Decisions, "accepted", ss.Accepted)
	}
	return err
}

// buildLogger constructs the daemon's slog logger on stderr from the
// -log-level and -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// logRecovery summarizes what the restart path restored for one shard.
func logRecovery(log *slog.Logger, shard int, w *waterwise.WALStatus) {
	if w == nil {
		return
	}
	if !w.RecoveredSnapshot && w.RecoveredRecords == 0 {
		log.Info("fresh data directory", "shard", shard)
		return
	}
	src := "log replay only"
	if w.RecoveredSnapshot {
		src = "snapshot + log replay"
	}
	log.Info("recovered durable state", "shard", shard, "records", w.RecoveredRecords,
		"source", src, "recovery_ms", w.RecoveryMs, "segments", w.Segments, "appended", w.Appended)
}

// startStream opens the binary streaming listener when -stream-addr is
// set and returns its shutdown func (a no-op when the flag is off).
func startStream(log *slog.Logger, addr string, srv *waterwise.Server) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream listener: %w", err)
	}
	sl := srv.ServeStream(ln, waterwise.StreamOptions{})
	log.Info("stream listening", "addr", ln.Addr().String())
	return func() { sl.Close() }, nil
}

// Connection bounds of both HTTP listeners. Without them a client that
// opens connections and trickles a request, or never sends one, holds each
// connection and its goroutine for as long as it likes.
const (
	// readHeaderTimeout bounds the request line and headers, a few hundred
	// bytes that any live client sends at once.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request, body included: a 16 MiB
	// POST /v1/jobs batch (the body cap) reads in well under a second on
	// any link that can feed the service, so a minute is generous.
	// There is no write timeout: a pprof profile or trace streams for as
	// many seconds as it was asked for.
	readTimeout = time.Minute
	// idleTimeout bounds a kept-alive connection between requests; a
	// poller that asks every few seconds keeps its connection.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer builds the http.Server of both listeners, the service
// address and -debug-addr, with the connection bounds above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM or a listen error, then
// stops the scheduling service and returns the listen error, if any.
func serve(log *slog.Logger, addr string, h http.Handler, stop func()) error {
	httpSrv := newHTTPServer(addr, h)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		stop()
		return err
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
	}
	_ = httpSrv.Close()
	stop()
	return nil
}
