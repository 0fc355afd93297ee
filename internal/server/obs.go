package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"waterwise/internal/obs"
)

// shardObs bundles one shard's observability recorders (internal/obs):
// latency histograms, the per-round trace ring, and job lifecycle traces
// sampled one in 64. It is always on and measurement only; the
// histograms, ring, and tracer have their own synchronization.
type shardObs struct {
	decision *obs.Histogram // Submit acceptance -> round commit, wall seconds
	round    *obs.Histogram // total scheduling-round wall seconds
	stages   [obs.NumStages]*obs.Histogram
	ring     *obs.RoundRing
	jobs     *obs.JobTracer
}

func newShardObs() *shardObs {
	o := &shardObs{
		decision: &obs.Histogram{},
		round:    &obs.Histogram{},
		ring:     obs.NewRoundRing(0, 0),
		jobs:     obs.NewJobTracer(0, 0),
	}
	for i := range o.stages {
		o.stages[i] = &obs.Histogram{}
	}
	return o
}

// recordRound feeds one completed round's trace into the histograms and
// the ring. Stages that did not run this round (no WAL, no fsync due, no
// snapshot) are zero and skipped, so each stage histogram's count is the
// number of rounds that actually exercised it.
func (o *shardObs) recordRound(rt obs.RoundTrace) {
	o.round.Record(rt.Total.Seconds())
	for st, d := range rt.Stages {
		if d > 0 || obs.Stage(st) == obs.StageSolve {
			o.stages[st].Record(d.Seconds())
		}
	}
	o.ring.Record(rt)
}

// ObsSummary is the quantile digest of the latency histograms,
// served in Status — the numbers the bench harness gates on without
// parsing the full /metrics exposition.
type ObsSummary struct {
	// Decision latency: Submit acceptance to round commit, wall clock.
	DecisionP50Ms  float64 `json:"decision_latency_p50_ms"`
	DecisionP99Ms  float64 `json:"decision_latency_p99_ms"`
	DecisionP999Ms float64 `json:"decision_latency_p999_ms"`
	DecisionCount  uint64  `json:"decision_latency_count"`
	// Round wall time and its solve stage (the Fig. 13 overhead, now as
	// a distribution rather than the deprecated running mean).
	RoundP50Ms float64 `json:"round_p50_ms"`
	RoundP99Ms float64 `json:"round_p99_ms"`
	SolveP50Ms float64 `json:"solve_p50_ms"`
	SolveP99Ms float64 `json:"solve_p99_ms"`
	// Ingest handler wall time.
	IngestP99Ms float64 `json:"ingest_p99_ms"`
	// JobSampleEvery echoes the lifecycle-trace sampling stride.
	JobSampleEvery int `json:"job_sample_every"`
}

// ObsSnapshots is the mergeable counter export of latency histograms —
// one shard's, or the service's sum of them.
type ObsSnapshots struct {
	Decision obs.Snapshot
	Ingest   obs.Snapshot
	Round    obs.Snapshot
	Stages   [obs.NumStages]obs.Snapshot
}

// merge folds other's counters into s.
func (s *ObsSnapshots) merge(other *ObsSnapshots) {
	s.Decision.Merge(other.Decision)
	s.Ingest.Merge(other.Ingest)
	s.Round.Merge(other.Round)
	for i := range s.Stages {
		s.Stages[i].Merge(other.Stages[i])
	}
}

// summary digests the snapshots into the Status quantiles.
func (s *ObsSnapshots) summary(sampleEvery int) *ObsSummary {
	dec := s.Decision
	rnd := s.Round
	slv := s.Stages[obs.StageSolve]
	ing := s.Ingest
	ms := func(sec float64) float64 { return sec * 1e3 }
	return &ObsSummary{
		DecisionP50Ms:  ms(dec.Quantile(0.50)),
		DecisionP99Ms:  ms(dec.Quantile(0.99)),
		DecisionP999Ms: ms(dec.Quantile(0.999)),
		DecisionCount:  dec.Count,
		RoundP50Ms:     ms(rnd.Quantile(0.50)),
		RoundP99Ms:     ms(rnd.Quantile(0.99)),
		SolveP50Ms:     ms(slv.Quantile(0.50)),
		SolveP99Ms:     ms(slv.Quantile(0.99)),
		IngestP99Ms:    ms(ing.Quantile(0.99)),
		JobSampleEvery: sampleEvery,
	}
}

// appendObsMetrics renders latency histograms in Prometheus text format:
// <prefix>decision_latency_seconds, <prefix>ingest_request_seconds,
// <prefix>round_duration_seconds, and <prefix>round_stage_seconds{stage=...}.
// labels is spliced into every series (shard="N" per shard, empty for the
// shard-merged "waterwise_fleet_" families); withHeader emits the
// # HELP/# TYPE lines, which only the first shard passes, so each family
// has exactly one header.
func appendObsMetrics(b []byte, snaps *ObsSnapshots, prefix, labels string, withHeader bool) []byte {
	b = snaps.Decision.AppendProm(b, prefix+"decision_latency_seconds",
		"Server-side decision latency: Submit acceptance to round commit (wall seconds).", labels, withHeader)
	b = snaps.Ingest.AppendProm(b, prefix+"ingest_request_seconds",
		"POST /v1/jobs handler wall time in seconds.", labels, withHeader)
	b = snaps.Round.AppendProm(b, prefix+"round_duration_seconds",
		"Scheduling round wall time in seconds, all stages.", labels, withHeader)
	stageHelp := "Per-stage round wall time in seconds; solve is Fig. 13's scheduler invocation cost."
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		stageLabel := fmt.Sprintf("stage=%q", st.String())
		if labels != "" {
			stageLabel = labels + "," + stageLabel
		}
		snap := snaps.Stages[st]
		b = snap.AppendProm(b, prefix+"round_stage_seconds", stageHelp, stageLabel, withHeader && st == 0)
	}
	return b
}

// obsSnapshots exports the shard's histogram counters. Ingest stays zero:
// requests are timed by the service, which owns the handler.
func (s *shard) obsSnapshots() *ObsSnapshots {
	out := &ObsSnapshots{
		Decision: s.obs.decision.Snapshot(),
		Round:    s.obs.round.Snapshot(),
	}
	for i, h := range s.obs.stages {
		out.Stages[i] = h.Snapshot()
	}
	return out
}

// ObsSnapshots returns the service's histogram counters: every shard's
// snapshots summed bucket by bucket (all histograms share one boundary
// set, so addition is exact), plus the ingest histogram.
func (s *Server) ObsSnapshots() *ObsSnapshots {
	merged := &ObsSnapshots{Ingest: s.ingest.Snapshot()}
	for _, sh := range s.shardList() {
		merged.merge(sh.obsSnapshots())
	}
	return merged
}

// mergedRounds gathers every shard's traces in wire form, orders them by
// before and keeps the first max (max <= 0 keeps all).
func (s *Server) mergedRounds(fetch func(*obs.RoundRing) []obs.RoundTrace, max int,
	before func(a, b *RoundTraceWire) bool) []RoundTraceWire {
	out := []RoundTraceWire{}
	for i, sh := range s.shardList() {
		out = append(out, wireRoundTraces(fetch(sh.obs.ring), i)...)
	}
	sort.Slice(out, func(i, j int) bool { return before(&out[i], &out[j]) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// jobTrace scans the shards for a sampled job's lifecycle trace; job ids
// are service-unique, so at most one shard answers.
func (s *Server) jobTrace(id int) (JobTraceResponse, bool) {
	for i, sh := range s.shardList() {
		if jt, ok := sh.obs.jobs.Get(id); ok {
			return JobTraceResponse{Shard: i, Trace: jt, SampleEvery: sh.obs.jobs.SampleEvery()}, true
		}
	}
	return JobTraceResponse{}, false
}

// RoundTraceWire is the JSON form of one round trace served by
// /v1/rounds/slowest: durations in milliseconds, stages keyed by name,
// and the owning shard.
type RoundTraceWire struct {
	Shard    int                `json:"shard"`
	Index    int64              `json:"index"`
	Sim      time.Time          `json:"sim"`
	Wall     time.Time          `json:"wall"`
	TotalMs  float64            `json:"total_ms"`
	StagesMs map[string]float64 `json:"stages_ms"`
	Batch    int                `json:"batch"`
	Decided  int                `json:"decided"`
}

// wireRoundTraces converts one shard's traces to their wire form.
// Zero-duration stages are omitted — a stage that did not run would read
// as "instant" otherwise.
func wireRoundTraces(rts []obs.RoundTrace, shard int) []RoundTraceWire {
	out := make([]RoundTraceWire, len(rts))
	for i, rt := range rts {
		stages := make(map[string]float64, obs.NumStages)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if d := rt.Stages[st]; d > 0 || st == obs.StageSolve {
				stages[st.String()] = float64(d) / float64(time.Millisecond)
			}
		}
		out[i] = RoundTraceWire{
			Shard: shard,
			Index: rt.Index, Sim: rt.Sim, Wall: rt.Wall,
			TotalMs:  float64(rt.Total) / float64(time.Millisecond),
			StagesMs: stages,
			Batch:    rt.Batch, Decided: rt.Decided,
		}
	}
	return out
}

// RoundsResponse is the GET /v1/rounds/slowest reply.
type RoundsResponse struct {
	// Slowest holds the slowest-round exemplars, slowest first.
	Slowest []RoundTraceWire `json:"slowest"`
	// Recent holds the latest rounds, newest first (only with ?recent=N).
	Recent []RoundTraceWire `json:"recent,omitempty"`
}

// serveRounds is GET /v1/rounds/slowest: the slowest rounds across every
// shard, slowest first, plus, with ?recent=N, the latest N, newest first.
func (s *Server) serveRounds(w http.ResponseWriter, r *http.Request) {
	resp := RoundsResponse{Slowest: s.mergedRounds((*obs.RoundRing).Slowest, obs.DefaultSlowestRounds,
		func(a, b *RoundTraceWire) bool { return a.TotalMs > b.TotalMs })}
	if v := r.URL.Query().Get("recent"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: "bad recent"})
			return
		}
		resp.Recent = s.mergedRounds(func(rr *obs.RoundRing) []obs.RoundTrace { return rr.Recent(n) }, n,
			func(a, b *RoundTraceWire) bool { return a.Wall.After(b.Wall) })
	}
	writeJSON(w, http.StatusOK, resp)
}

// ErrNoTrace reports a job id with no retained lifecycle trace: the job
// was not sampled or its trace was evicted.
var ErrNoTrace = errors.New("server: no trace for job")

// JobTraceResponse is the GET /v1/jobs/{id}/trace reply.
type JobTraceResponse struct {
	// Shard identifies the owning shard.
	Shard int          `json:"shard"`
	Trace obs.JobTrace `json:"trace"`
	// SampleEvery echoes the sampling stride, so a 404 is interpretable:
	// roughly one of every SampleEvery accepted jobs has a trace.
	SampleEvery int `json:"sample_every"`
}

// serveJobTrace is GET /v1/jobs/{id}/trace; unknown or unsampled ids are
// 404.
func (s *Server) serveJobTrace(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, PathJobs+"/")
	if !ok {
		writeJSON(w, http.StatusNotFound, SubmitResponse{Error: "not found"})
		return
	}
	idStr, tail, _ := strings.Cut(rest, "/")
	id, err := strconv.Atoi(idStr)
	if err != nil || tail != "trace" {
		writeJSON(w, http.StatusNotFound, SubmitResponse{Error: "want /v1/jobs/{id}/trace"})
		return
	}
	resp, found := s.jobTrace(id)
	if !found {
		writeJSON(w, http.StatusNotFound, SubmitResponse{Error: ErrNoTrace.Error() + " " + idStr})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
