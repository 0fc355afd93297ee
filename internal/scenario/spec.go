// Package scenario is the declarative chaos harness: a scenario is a
// validated spec combining an arrival program (what load looks like), a
// timed fault schedule (what breaks, when, for how long), and SLO
// assertions (what must still hold), and the runner executes it against
// a real sharded service — the same server shards, routing, merge, WAL,
// and feed stack production runs, with faults injected through
// first-class hooks (feed.Chaos, server.KillShard, server.SetQueueCap,
// wal.Options.SyncDelay) rather than test doubles.
//
// The harness's own correctness bar is the no-fault equivalence test: a
// scenario with an empty fault schedule must be decision-for-decision
// identical to a plain replay of the same trace, proving every
// injection hook is exactly free at zero. Reports are machine-readable
// and append into BENCH_SCENARIOS.json keyed by scenario name, so runs
// are comparable across commits.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"waterwise/internal/tsdb"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("15m", "500ms") in scenario JSON, and accepts either a string or a
// bare nanosecond count when parsing.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "15m"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std converts to time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Arrival program names accepted by Spec.Arrival.Program.
const (
	// ArrivalSteady is homogeneous Poisson arrivals (trace.GenerateSteady).
	ArrivalSteady = "steady"
	// ArrivalDiurnal is the Borg-style diurnal+weekly modulated program
	// (trace.GenerateBorgLike).
	ArrivalDiurnal = "diurnal"
	// ArrivalBursty is the Alibaba-style Markov-modulated program
	// (trace.GenerateAlibabaLike).
	ArrivalBursty = "bursty"
	// ArrivalFlash is a steady baseline with one rate spike
	// (trace.GenerateFlashCrowd).
	ArrivalFlash = "flash"
)

// Arrival selects and parameterizes the job-arrival program.
type Arrival struct {
	// Program is one of the Arrival* constants (default steady).
	Program string `json:"program,omitempty"`
	// FlashAt, FlashDuration, and FlashMult parameterize ArrivalFlash
	// (offset of the spike from the trace start, its length, and its
	// rate multiplier); ignored by the other programs.
	FlashAt       Duration `json:"flash_at,omitempty"`
	FlashDuration Duration `json:"flash_duration,omitempty"`
	FlashMult     float64  `json:"flash_mult,omitempty"`
}

// Fault kinds accepted by FaultSpec.Kind.
const (
	// FaultFeedOutage makes the environment feed unreachable: the chaos
	// provider serves last-good readings (staleness rises), and in live
	// mode every upstream request fails at the transport.
	FaultFeedOutage = "feed_outage"
	// FaultFeedThrottle turns the feed upstream into a 429 storm with a
	// Retry-After header (live mode; in synthetic mode it only marks
	// health degraded).
	FaultFeedThrottle = "feed_throttle"
	// FaultKillShard crash-stops one shard (server.KillShard: the WAL
	// drops its unsynced buffer). The service rebuilds the shard from its
	// write-ahead log on its own, so the fault has no window: it resolves
	// once the shard is back.
	FaultKillShard = "kill_shard"
	// FaultQueueSqueeze drops every shard's ingest queue capacity to Cap
	// for the window, restoring the original capacity after.
	FaultQueueSqueeze = "queue_squeeze"
	// FaultSlowFsync injects Delay of latency into every WAL fsync for
	// the window (wal.Options.SyncDelay) — the degraded-disk fault.
	FaultSlowFsync = "slow_fsync"
)

// FaultSpec is one timed entry of the fault schedule, timed in completed
// scheduling rounds (the fleet's only meaningful clock in accelerated
// mode) by the service's end-of-round hook (server.Config.OnRound): the
// fault fires after the round that brings any shard to AtRound completed
// rounds and — for windowed kinds — clears after the one that brings it
// to AtRound+Rounds. An onset the run never reaches never fires.
type FaultSpec struct {
	// Kind is one of the Fault* constants.
	Kind string `json:"kind"`
	// AtRound is the onset, in completed rounds.
	AtRound uint64 `json:"at_round"`
	// Rounds is the window length; 0 means the fault holds to the end of
	// the run (kill_shard takes none: the service ends it).
	Rounds uint64 `json:"rounds,omitempty"`
	// Shard is the victim for kill_shard.
	Shard int `json:"shard,omitempty"`
	// RetryAfter is the Retry-After advertised during feed_throttle: a
	// whole number of seconds, HTTP's only unit for it (0 sends none).
	RetryAfter Duration `json:"retry_after,omitempty"`
	// Cap is the squeezed queue capacity for queue_squeeze.
	Cap int `json:"cap,omitempty"`
	// Delay is the injected fsync latency for slow_fsync.
	Delay Duration `json:"delay,omitempty"`
}

// String renders the fault for reports: kind, window, and parameter.
func (f FaultSpec) String() string {
	s := fmt.Sprintf("%s@r%d", f.Kind, f.AtRound)
	if f.Rounds > 0 {
		s += fmt.Sprintf("+%d", f.Rounds)
	}
	switch f.Kind {
	case FaultKillShard:
		s += fmt.Sprintf(" shard=%d", f.Shard)
	case FaultQueueSqueeze:
		s += fmt.Sprintf(" cap=%d", f.Cap)
	case FaultSlowFsync:
		s += fmt.Sprintf(" delay=%s", f.Delay.Std())
	case FaultFeedThrottle:
		if f.RetryAfter > 0 {
			s += fmt.Sprintf(" retry-after=%s", f.RetryAfter.Std())
		}
	}
	return s
}

// Window assertion kinds accepted by WindowAssertion.Kind.
const (
	// WindowQuantile asserts a recorded histogram quantile stays under a
	// bound over every window of the run's recorded history.
	WindowQuantile = "quantile"
	// WindowAlert asserts a burn-rate SLO alert's fire/clear trajectory.
	WindowAlert = "alert"
)

// WindowAssertion is one windowed check against the fleet's metrics
// flight recorder — time-indexed where the flat SLOSpec fields are
// end-of-run aggregates. A quantile assertion demands "pQ of Series over
// every trailing Window rounds stays <= MaxMs from FromRound on" (the
// shape of "p99 recovered within K rounds of the fault clearing"); an
// alert assertion demands a named burn-rate alert actually fired inside
// a round range and, optionally, cleared by a deadline.
type WindowAssertion struct {
	// Kind is WindowQuantile or WindowAlert.
	Kind string `json:"kind"`

	// Series names the histogram family for WindowQuantile (without
	// _bucket), e.g. "waterwise_fleet_decision_latency_seconds".
	Series string `json:"series,omitempty"`
	// Q is the quantile in (0,1]; 0 defaults to 0.99.
	Q float64 `json:"q,omitempty"`
	// Window is the trailing window length in rounds (default 5).
	Window uint64 `json:"window,omitempty"`
	// FromRound is the first asserted window end; windows ending earlier
	// (e.g. during the fault itself) are exempt.
	FromRound uint64 `json:"from_round,omitempty"`
	// MaxMs bounds the quantile, in milliseconds.
	MaxMs float64 `json:"max_ms,omitempty"`

	// Alert names the asserted alert as "objective/rule" for WindowAlert,
	// e.g. "availability/fast".
	Alert string `json:"alert,omitempty"`
	// FiresBetween is the [lo, hi] round range the alert must first fire
	// in; empty only demands it fired at some point.
	FiresBetween []uint64 `json:"fires_between,omitempty"`
	// ClearsBy, when > 0, demands the alert cleared at or before this
	// round and is not firing at the end of the run.
	ClearsBy uint64 `json:"clears_by,omitempty"`
}

// String renders the assertion for check names and reports.
func (w WindowAssertion) String() string {
	if w.Kind == WindowAlert {
		return "alert:" + w.Alert
	}
	return fmt.Sprintf("quantile:%s@p%g", w.Series, w.Q*100)
}

// SLOSpec is the assertion set evaluated after the run from the fleet's
// own status, observability, and feed-health surfaces. Zero-valued
// fields are unchecked, so a spec states only the objectives it cares
// about.
type SLOSpec struct {
	// MaxDecisionP99Ms bounds the fleet-merged decision-latency p99
	// (submit acceptance to round commit, wall clock).
	MaxDecisionP99Ms float64 `json:"max_decision_p99_ms,omitempty"`
	// MaxRejectedFraction bounds rejected/submitted as observed by the
	// submitter (refusals by a dead shard included). Negative disables;
	// the zero value disables too (state 0 explicitly via a tiny bound).
	MaxRejectedFraction float64 `json:"max_rejected_fraction,omitempty"`
	// MaxFeedStalenessSeconds bounds the maximum feed staleness observed
	// at the end of any round during the run.
	MaxFeedStalenessSeconds float64 `json:"max_feed_staleness_s,omitempty"`
	// RequireNoLost asserts the merge lost no decisions to ring eviction
	// (fleet Lost == 0).
	RequireNoLost bool `json:"require_no_lost,omitempty"`
	// RequireDenseSeqs asserts the merged stream's global sequence
	// numbers are 1..N with no gap.
	RequireDenseSeqs bool `json:"require_dense_seqs,omitempty"`
	// MinDecisions asserts at least this many merged decisions.
	MinDecisions uint64 `json:"min_decisions,omitempty"`
	// MinRestarts asserts the service restarted at least this many dead
	// shards (proof the failover path actually ran).
	MinRestarts uint64 `json:"min_restarts,omitempty"`
	// MinForecastServed asserts the feed degraded to its forecast
	// fallback at least this often (proof an outage actually starved the
	// cache).
	MinForecastServed uint64 `json:"min_forecast_served,omitempty"`
	// MinFetchErrors asserts at least this many failed upstream fetches
	// (proof a transport fault actually landed; live mode).
	MinFetchErrors uint64 `json:"min_fetch_errors,omitempty"`
	// RequireFreshAtEnd asserts feed health recovered (not stale) after
	// the schedule's feed faults cleared.
	RequireFreshAtEnd bool `json:"require_fresh_at_end,omitempty"`
	// MinFsyncP99Ms asserts some shard's fsync-stall p99 reached this
	// level (proof slow_fsync actually landed).
	MinFsyncP99Ms float64 `json:"min_fsync_p99_ms,omitempty"`
	// Windows are time-indexed assertions against the run's recorded
	// metrics history; any entry (or any Spec.Objectives) arms the
	// fleet's flight recorder in deterministic sync mode.
	Windows []WindowAssertion `json:"windows,omitempty"`
}

// Submit modes accepted by Spec.Submit.
const (
	// SubmitUpfront submits the whole trace before Start — the replay
	// discipline every equivalence test uses (deterministic round
	// membership for every job).
	SubmitUpfront = "upfront"
	// SubmitPaced feeds the trace as rounds progress — the discipline
	// that makes mid-run admission faults (queue_squeeze, flash crowds)
	// bite. Each shard's end-of-round hook submits its home-region jobs
	// due within two rounds of its completed-round count, and through its
	// next arrival when it has nothing queued. What a shard admits then
	// depends only on its own state, so a paced run without faults
	// rejects the same submissions every time.
	SubmitPaced = "paced"
)

// Spec is one declarative scenario. JSON form is the on-disk/bundled
// representation; the zero value of every optional field means "default".
type Spec struct {
	// Name identifies the scenario in reports and BENCH_SCENARIOS.json.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Seed drives trace generation and the synthetic feed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Shards is the fleet width (default 2).
	Shards int `json:"shards,omitempty"`
	// Hours is the simulated environment span (default 6).
	Hours int `json:"hours,omitempty"`
	// Round is the simulated round length (default 15m).
	Round Duration `json:"round,omitempty"`
	// JobsPerDay is the mean arrival rate (default 2000).
	JobsPerDay float64 `json:"jobs_per_day,omitempty"`
	// Arrival selects the arrival program (default steady).
	Arrival Arrival `json:"arrival,omitempty"`
	// QueueCap bounds each shard's ingest queue (0: server default).
	QueueCap int `json:"queue_cap,omitempty"`
	// Submit is SubmitUpfront (default) or SubmitPaced.
	Submit string `json:"submit,omitempty"`
	// LiveFeed routes the environment through a feed.Live provider
	// backed by the chaos transport — the full TTL/backoff/forecast
	// ladder under fault control — instead of wrapping the synthetic
	// provider directly.
	LiveFeed bool `json:"live_feed,omitempty"`
	// Durable runs every shard with a write-ahead log under a temporary
	// directory (implied by kill_shard and slow_fsync faults).
	Durable bool `json:"durable,omitempty"`
	// Faults is the timed fault schedule (possibly empty: a plain run).
	Faults []FaultSpec `json:"faults,omitempty"`
	// Objectives are burn-rate SLO objectives evaluated by the fleet's
	// flight recorder on every round during the run; their alert
	// trajectories are asserted with SLOs.Windows alert entries.
	Objectives []tsdb.Objective `json:"objectives,omitempty"`
	// SLOs are the post-run assertions.
	SLOs SLOSpec `json:"slos,omitempty"`
}

// WithDefaults fills defaulted fields and validates the spec, returning
// the runnable form.
func (s Spec) WithDefaults() (Spec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("scenario: spec needs a name")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 {
		s.Shards = 2
	}
	if s.Hours <= 0 {
		s.Hours = 6
	}
	if s.Round <= 0 {
		s.Round = Duration(15 * time.Minute)
	}
	if s.JobsPerDay == 0 {
		s.JobsPerDay = 2000
	}
	if s.JobsPerDay < 0 {
		return s, fmt.Errorf("scenario %s: negative arrival rate", s.Name)
	}
	if s.Arrival.Program == "" {
		s.Arrival.Program = ArrivalSteady
	}
	switch s.Arrival.Program {
	case ArrivalSteady, ArrivalDiurnal, ArrivalBursty:
	case ArrivalFlash:
		if s.Arrival.FlashMult == 0 {
			s.Arrival.FlashMult = 10
		}
		if s.Arrival.FlashDuration <= 0 {
			s.Arrival.FlashDuration = Duration(30 * time.Minute)
		}
	default:
		return s, fmt.Errorf("scenario %s: unknown arrival program %q", s.Name, s.Arrival.Program)
	}
	switch s.Submit {
	case "":
		s.Submit = SubmitUpfront
	case SubmitUpfront, SubmitPaced:
	default:
		return s, fmt.Errorf("scenario %s: unknown submit mode %q", s.Name, s.Submit)
	}
	totalRounds := uint64(time.Duration(s.Hours) * time.Hour / s.Round.Std())
	for i, f := range s.Faults {
		if f.AtRound == 0 || f.AtRound >= totalRounds {
			return s, fmt.Errorf("scenario %s: fault %d onset round %d outside (0, %d)", s.Name, i, f.AtRound, totalRounds)
		}
		switch f.Kind {
		case FaultFeedOutage:
		case FaultFeedThrottle:
			if f.RetryAfter < 0 || f.RetryAfter%Duration(time.Second) != 0 {
				return s, fmt.Errorf("scenario %s: fault %d: retry_after %s is not a whole number of seconds", s.Name, i, f.RetryAfter.Std())
			}
		case FaultKillShard:
			if f.Shard < 0 || f.Shard >= s.Shards {
				return s, fmt.Errorf("scenario %s: fault %d kills shard %d of %d", s.Name, i, f.Shard, s.Shards)
			}
			if f.Rounds != 0 {
				return s, fmt.Errorf("scenario %s: fault %d gives kill_shard a window; the service restarts the shard itself", s.Name, i)
			}
			s.Durable = true
		case FaultQueueSqueeze:
			if f.Cap <= 0 {
				return s, fmt.Errorf("scenario %s: fault %d squeezes to non-positive cap %d", s.Name, i, f.Cap)
			}
		case FaultSlowFsync:
			if f.Delay <= 0 {
				return s, fmt.Errorf("scenario %s: fault %d injects non-positive fsync delay", s.Name, i)
			}
			s.Durable = true
		default:
			return s, fmt.Errorf("scenario %s: fault %d has unknown kind %q", s.Name, i, f.Kind)
		}
	}
	for i := range s.Objectives {
		if err := s.Objectives[i].Validate(); err != nil {
			return s, fmt.Errorf("scenario %s: objective %d: %w", s.Name, i, err)
		}
	}
	for i := range s.SLOs.Windows {
		w := &s.SLOs.Windows[i]
		switch w.Kind {
		case WindowQuantile:
			if w.Series == "" {
				return s, fmt.Errorf("scenario %s: window %d: quantile assertion needs a series", s.Name, i)
			}
			if w.MaxMs <= 0 {
				return s, fmt.Errorf("scenario %s: window %d: quantile assertion needs max_ms > 0", s.Name, i)
			}
			if w.Q == 0 {
				w.Q = 0.99
			}
			if w.Q < 0 || w.Q > 1 {
				return s, fmt.Errorf("scenario %s: window %d: quantile %g outside (0, 1]", s.Name, i, w.Q)
			}
			if w.Window == 0 {
				w.Window = 5
			}
		case WindowAlert:
			obj, rule, ok := splitAlertRef(w.Alert)
			if !ok {
				return s, fmt.Errorf("scenario %s: window %d: alert reference %q is not objective/rule", s.Name, i, w.Alert)
			}
			found := false
			for _, o := range s.Objectives {
				if o.Name != obj {
					continue
				}
				for _, r := range o.Rules {
					if r.Name == rule {
						found = true
					}
				}
			}
			if !found {
				return s, fmt.Errorf("scenario %s: window %d: alert %q names no declared objective rule", s.Name, i, w.Alert)
			}
			if n := len(w.FiresBetween); n != 0 && n != 2 {
				return s, fmt.Errorf("scenario %s: window %d: fires_between wants [lo, hi], got %d entries", s.Name, i, n)
			}
			if len(w.FiresBetween) == 2 && w.FiresBetween[0] > w.FiresBetween[1] {
				return s, fmt.Errorf("scenario %s: window %d: fires_between [%d, %d] is inverted", s.Name, i, w.FiresBetween[0], w.FiresBetween[1])
			}
		default:
			return s, fmt.Errorf("scenario %s: window %d has unknown kind %q", s.Name, i, w.Kind)
		}
	}
	return s, nil
}

// splitAlertRef parses an "objective/rule" alert reference.
func splitAlertRef(ref string) (objective, rule string, ok bool) {
	for i := 0; i < len(ref); i++ {
		if ref[i] == '/' {
			return ref[:i], ref[i+1:], i > 0 && i < len(ref)-1
		}
	}
	return "", "", false
}

// Parse decodes and validates one spec from its JSON form. Unknown
// fields are errors: a typo in a fault kind or SLO name must not
// silently weaken a scenario.
func Parse(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return s.WithDefaults()
}
