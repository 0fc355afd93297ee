// The SLO engine: declarative objectives evaluated on every scrape with
// multi-window burn-rate rules, the standard SRE construction — an alert
// fires when both a long and a short window burn the error budget faster
// than a factor, so sustained burns page quickly while blips that the
// short window has already recovered from do not; it clears as soon as
// the short window is healthy again.
package tsdb

import (
	"fmt"
	"sort"
)

// BurnRule is one (long, short) burn-rate window pair. Windows are in
// rounds — the recorder's clock — so rules behave identically under
// accelerated and wall-paced runs.
type BurnRule struct {
	// Name labels the rule in alerts ("fast", "slow").
	Name string `json:"name"`
	// Long and Short are the two window lengths in rounds; both must burn
	// at >= Factor for the alert to fire.
	Long  uint64 `json:"long"`
	Short uint64 `json:"short"`
	// Factor is the burn-rate threshold: 1.0 burns the whole error budget
	// exactly over the SLO period; the fast rule uses a high factor on
	// short windows, the slow rule a low factor on long ones.
	Factor float64 `json:"factor"`
}

// DefaultRules is the canonical multi-window pair scaled to rounds: a
// fast 5-round/1-round rule catching sharp burns and a slow
// 60-round/5-round rule catching sustained slow burns.
func DefaultRules() []BurnRule {
	return []BurnRule{
		{Name: "fast", Long: 5, Short: 1, Factor: 14.4},
		{Name: "slow", Long: 60, Short: 5, Factor: 6},
	}
}

// Objective is one declarative SLO. Exactly one of the two forms must be
// set:
//
//   - ratio: Bad (and Total or Good) name counter references; the error
//     fraction of a window is increase(Bad)/increase(Total), with
//     Total defaulting to Bad+Good when Good is given instead.
//   - latency: Family names a histogram (without _bucket) and
//     ThresholdMs the success bound; the error fraction is the windowed
//     fraction of observations above the threshold.
type Objective struct {
	// Name identifies the objective in alerts and queries.
	Name string `json:"name"`
	// Target is the SLO target in (0,1), e.g. 0.999; the error budget is
	// 1-Target.
	Target float64 `json:"target"`

	// Bad / Total / Good are counter references for ratio objectives.
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`
	Good  string `json:"good,omitempty"`

	// Family / ThresholdMs define latency objectives. Bucket edges are in
	// seconds; ThresholdMs is converted.
	Family      string  `json:"family,omitempty"`
	ThresholdMs float64 `json:"threshold_ms,omitempty"`

	// Rules defaults to DefaultRules().
	Rules []BurnRule `json:"rules,omitempty"`
}

// Validate checks the objective and fills defaulted rules.
func (o *Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("tsdb: objective needs a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("tsdb: objective %q: target must be in (0,1), got %g", o.Name, o.Target)
	}
	ratio := o.Bad != ""
	latency := o.Family != ""
	switch {
	case ratio && latency:
		return fmt.Errorf("tsdb: objective %q: set bad/total or family/threshold_ms, not both", o.Name)
	case ratio:
		if o.Total == "" && o.Good == "" {
			return fmt.Errorf("tsdb: objective %q: ratio form needs total or good", o.Name)
		}
	case latency:
		if o.ThresholdMs <= 0 {
			return fmt.Errorf("tsdb: objective %q: latency form needs threshold_ms > 0", o.Name)
		}
	default:
		return fmt.Errorf("tsdb: objective %q: set bad/total (ratio) or family/threshold_ms (latency)", o.Name)
	}
	if len(o.Rules) == 0 {
		o.Rules = DefaultRules()
	}
	for i, r := range o.Rules {
		if r.Name == "" {
			return fmt.Errorf("tsdb: objective %q: rule %d needs a name", o.Name, i)
		}
		for _, prev := range o.Rules[:i] {
			if prev.Name == r.Name {
				return fmt.Errorf("tsdb: objective %q: duplicate rule name %q", o.Name, r.Name)
			}
		}
		if r.Long == 0 || r.Short == 0 || r.Short > r.Long {
			return fmt.Errorf("tsdb: objective %q rule %q: need 0 < short <= long", o.Name, r.Name)
		}
		if r.Factor <= 0 {
			return fmt.Errorf("tsdb: objective %q rule %q: factor must be > 0", o.Name, r.Name)
		}
	}
	return nil
}

// Alert is the live state of one (objective, rule) pair.
type Alert struct {
	Objective string  `json:"objective"`
	Rule      string  `json:"rule"`
	Factor    float64 `json:"factor"`
	// Firing is the current state.
	Firing bool `json:"firing"`
	// FiredAtRound / ClearedAtRound are the most recent transitions
	// (0 = never).
	FiredAtRound   uint64 `json:"fired_at_round,omitempty"`
	ClearedAtRound uint64 `json:"cleared_at_round,omitempty"`
	// Fires counts fire transitions over the recorder's lifetime.
	Fires uint64 `json:"fires"`
	// BurnLong / BurnShort are the burn rates at the last evaluation that
	// had data.
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
}

// sloEngine evaluates objectives against the store on every scrape.
type sloEngine struct {
	objectives []Objective
	alerts     []Alert // parallel to objectives x rules, fixed order
	logf       func(format string, args ...any)
}

// newSLOEngine validates the objectives and lays out their alerts. Alerts
// are identified by (objective, rule) name, so objective names must be
// unique (and rule names within each objective, which Validate checks).
func newSLOEngine(objectives []Objective, logf func(string, ...any)) (*sloEngine, error) {
	e := &sloEngine{logf: logf}
	for i := range objectives {
		o := objectives[i]
		if err := o.Validate(); err != nil {
			return nil, err
		}
		for _, prev := range e.objectives {
			if prev.Name == o.Name {
				return nil, fmt.Errorf("tsdb: duplicate objective name %q", o.Name)
			}
		}
		e.objectives = append(e.objectives, o)
		for _, r := range o.Rules {
			e.alerts = append(e.alerts, Alert{Objective: o.Name, Rule: r.Name, Factor: r.Factor})
		}
	}
	return e, nil
}

// errorFraction computes an objective's error fraction over the window
// ending at round. ok=false means the window held no events — the caller
// holds the previous alert state rather than treating silence as health
// (during a feed-backoff gap zero fetches is not zero errors).
func (e *sloEngine) errorFraction(st *Store, o *Objective, window, round uint64) (float64, bool) {
	if o.Family != "" {
		frac, ok := st.FracAtMost(o.Family, o.ThresholdMs/1000.0, window, round)
		if !ok {
			return 0, false
		}
		return 1 - frac, true
	}
	bad, okB := st.Increase(o.Bad, window, round)
	var total float64
	var okT bool
	if o.Total != "" {
		total, okT = st.Increase(o.Total, window, round)
	} else {
		good, okG := st.Increase(o.Good, window, round)
		total, okT = bad+good, okB || okG
	}
	if !okT || total <= 0 {
		return 0, false
	}
	if !okB {
		bad = 0
	}
	frac := bad / total
	if frac > 1 {
		frac = 1
	}
	return frac, true
}

// evaluate recomputes every (objective, rule) burn rate at round and
// applies fire/clear transitions, logging each one.
func (e *sloEngine) evaluate(st *Store, round uint64) {
	ai := 0
	for i := range e.objectives {
		o := &e.objectives[i]
		budget := 1 - o.Target
		for _, r := range o.Rules {
			a := &e.alerts[ai]
			ai++
			fracL, okL := e.errorFraction(st, o, r.Long, round)
			fracS, okS := e.errorFraction(st, o, r.Short, round)
			if !okL || !okS {
				continue // no data: hold state
			}
			a.BurnLong = fracL / budget
			a.BurnShort = fracS / budget
			if !a.Firing && a.BurnLong >= r.Factor && a.BurnShort >= r.Factor {
				a.Firing = true
				a.FiredAtRound = round
				a.Fires++
				if e.logf != nil {
					e.logf("slo alert firing objective=%s rule=%s round=%d burn_long=%.2f burn_short=%.2f factor=%.2f",
						o.Name, r.Name, round, a.BurnLong, a.BurnShort, r.Factor)
				}
			} else if a.Firing && a.BurnShort < r.Factor {
				a.Firing = false
				a.ClearedAtRound = round
				if e.logf != nil {
					e.logf("slo alert cleared objective=%s rule=%s round=%d burn_short=%.2f factor=%.2f",
						o.Name, r.Name, round, a.BurnShort, r.Factor)
				}
			}
		}
	}
}

// snapshot copies the alert states, sorted by objective then rule.
func (e *sloEngine) snapshot() []Alert {
	out := append([]Alert(nil), e.alerts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Objective != out[j].Objective {
			return out[i].Objective < out[j].Objective
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// firing counts currently-firing alerts.
func (e *sloEngine) firing() int {
	n := 0
	for i := range e.alerts {
		if e.alerts[i].Firing {
			n++
		}
	}
	return n
}
