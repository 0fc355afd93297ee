package server

import (
	"fmt"
	"sort"
	"strconv"

	"waterwise/internal/feed"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/transport"
)

// family is one metric family: its exposition identity (name, TYPE, HELP)
// and how to read its samples off a status snapshot S. A family is defined
// in exactly one table row, rendered through appendFamilies.
type family[S any] struct {
	Name, Type, Help string
	// Samples calls emit once per sample st carries, with the sample's own
	// labels (empty, or a comma-joined `k="v"` list). A status without the
	// subsystem behind the family (no solver stats, no WAL) emits nothing,
	// which keeps the family out of that exposition altogether.
	Samples func(st *S, emit func(labels string, v float64))
}

// source is one status to render and the label that tells its samples
// from the other sources': `shard="2"` for a shard, empty for the service.
type source[S any] struct {
	label  string
	status *S
}

// appendFamilies renders the table over the sources: each family that any
// source has samples for gets one # HELP/# TYPE header followed by every
// source's rows; a family nobody has is skipped.
func appendFamilies[S any](b []byte, fams []family[S], srcs []source[S]) []byte {
	for i := range fams {
		f := &fams[i]
		wrote := false
		for _, src := range srcs {
			f.Samples(src.status, func(labels string, v float64) {
				if !wrote {
					b = obs.AppendHeader(b, f.Name, f.Type, f.Help)
					wrote = true
				}
				if labels != "" && src.label != "" {
					labels += ","
				}
				b = obs.AppendSample(b, f.Name, labels+src.label, v)
			})
		}
	}
	return b
}

// scalar, solverStat and walStat adapt a one-value getter to a family's
// Samples; the latter two emit nothing when the shard has no solver stats
// or no WAL.
func scalar(v func(*ShardStatus) float64) func(*ShardStatus, func(string, float64)) {
	return func(st *ShardStatus, emit func(string, float64)) { emit("", v(st)) }
}

func solverStat(v func(*transport.Stats) float64) func(*ShardStatus, func(string, float64)) {
	return func(st *ShardStatus, emit func(string, float64)) {
		if st.Solver != nil {
			emit("", v(st.Solver))
		}
	}
}

func walStat(v func(*WALStatus) float64) func(*ShardStatus, func(string, float64)) {
	return func(st *ShardStatus, emit func(string, float64)) {
		if st.WAL != nil {
			emit("", v(st.WAL))
		}
	}
}

// statusFamilies is the one definition of every family derived from a
// shard's status: queue and round counters, per-region free servers,
// solver instrumentation (when the scheduler exposes it) and durability
// (when DataDir is set). Adding a family is adding a row.
var statusFamilies = []family[ShardStatus]{
	{"waterwise_jobs_accepted_total", "counter", "Jobs accepted into the ingest queue.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Accepted) })},
	{"waterwise_jobs_rejected_total", "counter", "Jobs rejected (backpressure, validation, duplicates).",
		scalar(func(st *ShardStatus) float64 { return float64(st.Rejected) })},
	{"waterwise_rounds_total", "counter", "Scheduling rounds run.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Rounds) })},
	{"waterwise_decisions_total", "counter", "Placement decisions committed.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Decisions) })},
	{"waterwise_jobs_unscheduled_total", "counter", "Jobs abandoned without a placement.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Unscheduled) })},
	{"waterwise_queue_pending", "gauge", "Jobs awaiting a placement decision.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Pending) })},
	{"waterwise_queue_future", "gauge", "Accepted jobs not yet due for a round.",
		scalar(func(st *ShardStatus) float64 { return float64(st.Future) })},
	{"waterwise_queue_cap", "gauge", "Ingest queue capacity (backpressure threshold).",
		scalar(func(st *ShardStatus) float64 { return float64(st.QueueCap) })},
	{"waterwise_region_free_servers", "gauge", "Servers free per region at the simulated clock.",
		func(st *ShardStatus, emit func(string, float64)) {
			ids := make([]string, 0, len(st.Free))
			for id := range st.Free {
				ids = append(ids, string(id))
			}
			sort.Strings(ids)
			for _, id := range ids {
				emit("region="+strconv.Quote(id), float64(st.Free[region.ID(id)]))
			}
		}},

	{"waterwise_solver_nodes_total", "counter", "Branch-and-bound nodes across all rounds (0: rounds are solved as transportation problems).",
		solverStat(func(s *transport.Stats) float64 { return float64(s.Nodes) })},
	{"waterwise_solver_simplex_iters_total", "counter", "Simplex pivots across all rounds (0: rounds are solved as transportation problems).",
		solverStat(func(s *transport.Stats) float64 { return float64(s.SimplexIters) })},
	{"waterwise_solver_warm_starts_total", "counter", "LP solves served by a warm start (0: rounds are solved as transportation problems).",
		solverStat(func(s *transport.Stats) float64 { return float64(s.WarmStarts) })},
	{"waterwise_solver_cold_starts_total", "counter", "LP solves run from scratch (0: rounds are solved as transportation problems).",
		solverStat(func(s *transport.Stats) float64 { return float64(s.ColdStarts) })},
	{"waterwise_solver_wall_seconds_total", "counter", "Aggregate round solve wall time.",
		solverStat(func(s *transport.Stats) float64 { return s.Wall.Seconds() })},

	{"waterwise_jobs_deduped_total", "counter", "Idempotent re-submits served from the dedupe index.",
		walStat(func(w *WALStatus) float64 { return float64(w.Deduped) })},
	{"waterwise_wal_segments", "gauge", "Write-ahead log segment files on disk.",
		walStat(func(w *WALStatus) float64 { return float64(w.Segments) })},
	{"waterwise_wal_bytes", "gauge", "Write-ahead log size on disk (snapshots excluded).",
		walStat(func(w *WALStatus) float64 { return float64(w.Bytes) })},
	{"waterwise_wal_records_appended_total", "counter", "Records appended to the write-ahead log.",
		walStat(func(w *WALStatus) float64 { return float64(w.Appended) })},
	{"waterwise_wal_records_synced_total", "counter", "Appended records made durable by an fsync.",
		walStat(func(w *WALStatus) float64 { return float64(w.Synced) })},
	{"waterwise_wal_fsyncs_total", "counter", "Fsync batches flushed to the log.",
		walStat(func(w *WALStatus) float64 { return float64(w.Fsyncs) })},
	{"waterwise_wal_fsync_stall_p50_ms", "gauge", "Median fsync stall over the recent window.",
		walStat(func(w *WALStatus) float64 { return float64(w.FsyncP50) / 1e6 })},
	{"waterwise_wal_fsync_stall_p99_ms", "gauge", "99th-percentile fsync stall over the recent window.",
		walStat(func(w *WALStatus) float64 { return float64(w.FsyncP99) / 1e6 })},
	{"waterwise_wal_snapshots_total", "counter", "State snapshots written.",
		walStat(func(w *WALStatus) float64 { return float64(w.Snapshots) })},
	{"waterwise_wal_truncated_bytes_total", "counter", "Torn-tail bytes discarded at the last recovery.",
		walStat(func(w *WALStatus) float64 { return float64(w.TruncatedBytes) })},
	{"waterwise_wal_recovery_ms", "gauge", "Wall time of the last restart's snapshot restore + replay.",
		walStat(func(w *WALStatus) float64 { return w.RecoveryMs })},
	{"waterwise_wal_recovered_records_total", "counter", "Log records replayed at the last restart.",
		walStat(func(w *WALStatus) float64 { return float64(w.RecoveredRecords) })},
}

// serviceFamilies are the service's own families — merge accounting and
// failover — over its Status.
var serviceFamilies = []family[Status]{
	{"waterwise_fleet_shards", "gauge", "Scheduler shards behind this gateway.",
		func(st *Status, emit func(string, float64)) { emit("", float64(st.Shards)) }},
	{"waterwise_fleet_merged_decisions_total", "counter", "Decisions emitted into the merged global stream.",
		func(st *Status, emit func(string, float64)) { emit("", float64(st.Merged)) }},
	{"waterwise_fleet_lost_decisions_total", "counter", "Decisions evicted from a shard ring before the merge read them.",
		func(st *Status, emit func(string, float64)) { emit("", float64(st.Lost)) }},
	{"waterwise_fleet_restarts_total", "counter", "Dead shards rebuilt from their data directories.",
		func(st *Status, emit func(string, float64)) { emit("", float64(st.Restarts)) }},
	{"waterwise_fleet_shard_up", "gauge", "1 while the shard serves, 0 while it is dead.",
		func(st *Status, emit func(string, float64)) {
			for _, ss := range st.ShardStatus {
				up := 1.0
				if ss.Down {
					up = 0
				}
				emit(shardLabel(ss.Shard), up)
			}
		}},
}

func shardLabel(shard int) string { return fmt.Sprintf("shard=\"%d\"", shard) }

// MetricsText renders the full exposition as bytes — what /metrics serves
// and the flight recorder scrapes in-process on the round clock: the
// service's own families, every shard's families labeled by shard, the
// shard-merged latency histograms, the feed block and the recorder's.
// Labeling rather than summing keeps a hot shard visible; sums are one
// PromQL aggregation away.
func (s *Server) MetricsText() []byte {
	st := s.Status()
	b := appendBuildInfo(nil)
	b = appendFamilies(b, serviceFamilies, []source[Status]{{status: &st}})
	shards := make([]source[ShardStatus], len(st.ShardStatus))
	for i := range st.ShardStatus {
		ss := &st.ShardStatus[i]
		shards[i] = source[ShardStatus]{label: shardLabel(ss.Shard), status: ss}
	}
	b = appendFamilies(b, statusFamilies, shards)
	// Latency histograms twice over: per shard (which shard's solve is
	// slow), then shard-merged (what a client of the service sees) — exact
	// sums, since every histogram shares one bucket scheme. Shard 0
	// carries the headers.
	for i, sh := range s.shardList() {
		b = appendObsMetrics(b, sh.obsSnapshots(), "waterwise_", shardLabel(i), i == 0)
	}
	b = appendObsMetrics(b, s.ObsSnapshots(), "waterwise_fleet_", "", true)
	// One feed block: every shard reads the same provider through its
	// partition view.
	b = appendFeedMetrics(b, st.Feed)
	if s.recorder != nil {
		b = s.recorder.AppendMetrics(b, "waterwise_")
	}
	return b
}

// appendFeedMetrics renders the environment-feed health block — provider
// identity, staleness, and fetch/cache accounting — in Prometheus text
// format.
func appendFeedMetrics(b []byte, h *feed.Health) []byte {
	if h == nil {
		return b
	}
	provider := "provider=" + strconv.Quote(h.Provider)
	row := func(name, help, typ string, v float64) {
		b = obs.AppendHeader(b, name, typ, help)
		b = obs.AppendSample(b, name, provider, v)
	}
	stale := 0.0
	if h.Stale {
		stale = 1
	}
	row("waterwise_feed_staleness_seconds", "Age of the oldest region's last good feed reading.", "gauge", h.StalenessSeconds)
	row("waterwise_feed_stale", "1 when any region's feed reading is older than the freshness target.", "gauge", stale)
	row("waterwise_feed_fetches_total", "Upstream feed fetches attempted.", "counter", float64(h.Fetches))
	row("waterwise_feed_fetch_errors_total", "Upstream feed fetches that failed (timeouts, 429s, bad payloads).", "counter", float64(h.FetchErrors))
	row("waterwise_feed_cache_hits_total", "Feed reads served inside the freshness window.", "counter", float64(h.CacheHits))
	row("waterwise_feed_cache_misses_total", "Feed reads past the freshness window (served stale or forecast).", "counter", float64(h.CacheMisses))
	row("waterwise_feed_forecast_served_total", "Feed reads degraded to the forecast fallback.", "counter", float64(h.ForecastServed))
	return b
}
