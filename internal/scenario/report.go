package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"waterwise/internal/feed"
	"waterwise/internal/trace"
	"waterwise/internal/tsdb"
)

// Check is one evaluated SLO assertion.
type Check struct {
	// Name identifies the assertion (the SLOSpec field, kebab-cased).
	Name string `json:"name"`
	// Ok reports whether the assertion held.
	Ok bool `json:"ok"`
	// Value is the measured quantity; Bound the asserted limit.
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	// Detail carries context for failed checks.
	Detail string `json:"detail,omitempty"`
}

// Report is one scenario run's machine-readable result — the record
// appended into BENCH_SCENARIOS.json, comparable across commits by
// scenario name.
type Report struct {
	// Scenario names the spec that ran.
	Scenario    string    `json:"scenario"`
	Description string    `json:"description,omitempty"`
	StartedAt   time.Time `json:"started_at"`
	// WallMs is the whole run's wall time.
	WallMs float64 `json:"wall_ms"`
	// Pass is the conjunction of every check.
	Pass bool `json:"pass"`
	// Checks are the evaluated SLO assertions.
	Checks []Check `json:"checks"`
	// Faults lists the schedule entries that actually fired.
	Faults []string `json:"faults,omitempty"`
	// Jobs is the generated trace size; Submitted/RejectedSubmits are the
	// submitter-side ledger (refusals by a dead shard included).
	Jobs            int `json:"jobs"`
	Submitted       int `json:"submitted"`
	RejectedSubmits int `json:"rejected_submits"`
	// Fleet counters at the end of the run.
	Accepted    uint64 `json:"accepted"`
	Rejected    uint64 `json:"rejected"`
	Rounds      uint64 `json:"rounds"`
	Decisions   uint64 `json:"decisions"`
	Merged      uint64 `json:"merged"`
	Lost        uint64 `json:"lost"`
	Unscheduled int    `json:"unscheduled"`
	// Restarts counts dead shards the service rebuilt from their data
	// directories.
	Restarts uint64 `json:"restarts"`
	// DecisionP99Ms is the fleet-merged decision-latency p99.
	DecisionP99Ms float64 `json:"decision_p99_ms"`
	// MaxFeedStalenessSeconds is the worst staleness seen at the end of
	// any round.
	MaxFeedStalenessSeconds float64 `json:"max_feed_staleness_s"`
	// ForecastServed and FetchErrors are the feed's final degradation
	// counters (live mode).
	ForecastServed uint64 `json:"forecast_served,omitempty"`
	FetchErrors    uint64 `json:"fetch_errors,omitempty"`
	// FsyncP99Ms is the worst per-shard fsync-stall p99 (durable mode).
	FsyncP99Ms float64 `json:"fsync_p99_ms,omitempty"`
	// RecordedRounds is the flight recorder's newest scraped round, and
	// Alerts the final burn-rate alert states (specs with Objectives or
	// windowed assertions only).
	RecordedRounds uint64       `json:"recorded_rounds,omitempty"`
	Alerts         []tsdb.Alert `json:"alerts,omitempty"`
}

// evaluate reads the settled service and builds the report.
func (r *run) evaluate() (*Report, error) {
	st := r.srv.Status()
	decisions := r.srv.Decisions(0, 0)
	r.decisions = decisions
	health := feed.HealthOf(r.env.Provider())
	rep := &Report{
		Scenario: r.spec.Name, Description: r.spec.Description,
		Faults: r.faultLog, Jobs: len(r.jobs),
		Submitted: r.submitted, RejectedSubmits: r.rejected,
		Accepted: st.Accepted, Rejected: st.Rejected, Rounds: st.Rounds,
		Decisions: st.Decisions, Merged: st.Merged, Lost: st.Lost,
		Unscheduled:             st.Unscheduled,
		Restarts:                st.Restarts,
		MaxFeedStalenessSeconds: r.maxStaleness,
		ForecastServed:          health.ForecastServed,
		FetchErrors:             health.FetchErrors,
		DecisionP99Ms:           st.Obs.DecisionP99Ms,
	}
	for _, ss := range st.ShardStatus {
		if ss.WAL != nil {
			if ms := float64(ss.WAL.FsyncP99) / 1e6; ms > rep.FsyncP99Ms {
				rep.FsyncP99Ms = ms
			}
		}
	}

	slo := r.spec.SLOs
	check := func(name string, ok bool, value, bound float64, detail string) {
		if ok {
			detail = ""
		}
		rep.Checks = append(rep.Checks, Check{Name: name, Ok: ok, Value: value, Bound: bound, Detail: detail})
	}
	if slo.MaxDecisionP99Ms > 0 {
		check("max-decision-p99-ms", rep.DecisionP99Ms <= slo.MaxDecisionP99Ms,
			rep.DecisionP99Ms, slo.MaxDecisionP99Ms, "decision latency p99 over bound")
	}
	if slo.MaxRejectedFraction > 0 {
		frac := 0.0
		if r.submitted > 0 {
			frac = float64(r.rejected) / float64(r.submitted)
		}
		check("max-rejected-fraction", frac <= slo.MaxRejectedFraction,
			frac, slo.MaxRejectedFraction, "submitter-observed rejection rate over bound")
	}
	if slo.MaxFeedStalenessSeconds > 0 {
		check("max-feed-staleness-s", r.maxStaleness <= slo.MaxFeedStalenessSeconds,
			r.maxStaleness, slo.MaxFeedStalenessSeconds, "feed staleness exceeded bound during the run")
	}
	if slo.RequireNoLost {
		check("require-no-lost", st.Lost == 0, float64(st.Lost), 0,
			"merge lost decisions to shard-ring eviction")
	}
	if slo.RequireDenseSeqs {
		dense := true
		detail := ""
		for i, d := range decisions {
			if d.Seq != uint64(i)+1 {
				dense = false
				detail = fmt.Sprintf("decision %d has global seq %d", i, d.Seq)
				break
			}
		}
		check("require-dense-seqs", dense, float64(len(decisions)), float64(st.Merged), detail)
	}
	if slo.MinDecisions > 0 {
		check("min-decisions", st.Merged >= slo.MinDecisions,
			float64(st.Merged), float64(slo.MinDecisions), "merged decision count under bound")
	}
	if slo.MinRestarts > 0 {
		check("min-restarts", rep.Restarts >= slo.MinRestarts,
			float64(rep.Restarts), float64(slo.MinRestarts), "the service restarted fewer shards than required")
	}
	if slo.MinForecastServed > 0 {
		check("min-forecast-served", health.ForecastServed >= slo.MinForecastServed,
			float64(health.ForecastServed), float64(slo.MinForecastServed), "feed never degraded to its forecast fallback")
	}
	if slo.MinFetchErrors > 0 {
		check("min-fetch-errors", health.FetchErrors >= slo.MinFetchErrors,
			float64(health.FetchErrors), float64(slo.MinFetchErrors), "no failed upstream fetches recorded")
	}
	if slo.RequireFreshAtEnd {
		fresh := 0.0
		if r.recovered {
			fresh = 1
		}
		check("require-fresh-at-end", r.recovered, fresh, 1, "feed health still stale after faults cleared")
	}
	if slo.MinFsyncP99Ms > 0 {
		check("min-fsync-p99-ms", rep.FsyncP99Ms >= slo.MinFsyncP99Ms,
			rep.FsyncP99Ms, slo.MinFsyncP99Ms, "fsync stall p99 never reached the injected level")
	}
	if rec := r.srv.Recorder(); rec != nil {
		rep.RecordedRounds = rec.Store().LastRound()
		rep.Alerts, _ = rec.Alerts()
		for _, w := range slo.Windows {
			r.checkWindow(rec, w, check)
		}
	}
	rep.Pass = true
	for _, c := range rep.Checks {
		rep.Pass = rep.Pass && c.Ok
	}
	return rep, nil
}

// checkWindow evaluates one windowed assertion against the recorder.
func (r *run) checkWindow(rec *tsdb.Recorder, w WindowAssertion, check func(name string, ok bool, value, bound float64, detail string)) {
	switch w.Kind {
	case WindowQuantile:
		// Every trailing window ending in [FromRound, last] must hold the
		// bound — one bad window anywhere after the exemption is a miss.
		// Windows with no observations are skipped (a drained run's last
		// rounds may place nothing), but at least one must have data or the
		// assertion never measured anything.
		st := rec.Store()
		last := st.LastRound()
		first := w.FromRound
		if first < w.Window {
			first = w.Window
		}
		worst, measured := 0.0, false
		for end := first; end <= last; end++ {
			q, ok := st.QuantileOver(w.Series, w.Q, w.Window, end)
			if !ok {
				continue
			}
			measured = true
			if ms := q * 1000; ms > worst {
				worst = ms
			}
		}
		detail := fmt.Sprintf("worst p%g over any %d-round window from round %d", w.Q*100, w.Window, first)
		if !measured {
			detail = fmt.Sprintf("no recorded observations of %s in any asserted window", w.Series)
		}
		check(w.String(), measured && worst <= w.MaxMs, worst, w.MaxMs, detail)
	case WindowAlert:
		obj, rule, _ := splitAlertRef(w.Alert)
		var alert *tsdb.Alert
		alerts, _ := rec.Alerts()
		for _, a := range alerts {
			if a.Objective == obj && a.Rule == rule {
				alert = &a
				break
			}
		}
		if alert == nil {
			check(w.String(), false, 0, 0, fmt.Sprintf("recorder tracks no alert %q", w.Alert))
			return
		}
		lo, hi := uint64(0), rec.Store().LastRound()
		if len(w.FiresBetween) == 2 {
			lo, hi = w.FiresBetween[0], w.FiresBetween[1]
		}
		fired := alert.Fires > 0 && alert.FiredAtRound >= lo && alert.FiredAtRound <= hi
		check(w.String()+"-fires", fired, float64(alert.FiredAtRound), float64(hi),
			fmt.Sprintf("alert fired %d times, first-fire round %d outside [%d, %d]", alert.Fires, alert.FiredAtRound, lo, hi))
		if w.ClearsBy > 0 {
			cleared := !alert.Firing && alert.ClearedAtRound > 0 && alert.ClearedAtRound <= w.ClearsBy
			check(w.String()+"-clears", cleared, float64(alert.ClearedAtRound), float64(w.ClearsBy),
				fmt.Sprintf("alert still firing=%v, cleared at round %d, want cleared by %d", alert.Firing, alert.ClearedAtRound, w.ClearsBy))
		}
	}
}

// WriteReports merges reports into the JSON report file (conventionally
// BENCH_SCENARIOS.json): an existing entry with the same scenario name
// is replaced, new names append, and the file stays sorted by name — so
// successive runs of the same scenarios stay comparable, line for line.
func WriteReports(path string, reports ...Report) error {
	var all []Report
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("scenario: existing report file %s is not a report array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, rep := range reports {
		replaced := false
		for i := range all {
			if all[i].Scenario == rep.Scenario {
				all[i] = rep
				replaced = true
				break
			}
		}
		if !replaced {
			all = append(all, rep)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Scenario < all[j].Scenario })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// roundTripCSV pushes jobs through the trace CSV codec, quantizing
// timestamps to the precision a file-fed replay would carry.
func roundTripCSV(jobs []*trace.Job) ([]*trace.Job, error) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, jobs); err != nil {
		return nil, err
	}
	return trace.ReadCSV(&buf)
}

// ReportPath is the conventional repo-root report file name.
const ReportPath = "BENCH_SCENARIOS.json"
