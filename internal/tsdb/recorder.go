// The recorder ties the store to a metrics exposition: on the scheduler
// round clock it gathers the Prometheus text the server already serves,
// reads every sample line once (appendText: the identity before the
// line's last space keys the series, the rest is the value), appends it
// at the round index, and re-evaluates the SLO engine. Scraping its own
// exposition — rather than reaching into internals — means anything
// rendered on /metrics is automatically queryable over time, including
// series added by future PRs. The exposition is the process's own, so
// the recorder does not re-check its # HELP / # TYPE structure; the
// strict obs.ParseProm remains for bytes the process did not write.
package tsdb

import (
	"fmt"
	"sync"
	"time"

	"waterwise/internal/obs"
)

// Config configures a Recorder. The zero value records every round under
// the default budget with no objectives.
type Config struct {
	// MemoryBudgetBytes bounds the compressed store; <= 0 means 8 MiB.
	// Oldest windows are evicted beyond it, counted in
	// waterwise_tsdb_evicted_chunks_total.
	MemoryBudgetBytes int
	// MinInterval floors the wall-clock spacing of scrapes. Zero scrapes
	// every round, in order — a round-exact history, what scenarios and
	// tests want. An accelerated daemon can run hundreds of rounds per
	// second, and a full gather+parse per round would eat the machine; a
	// flight recorder at a few Hz loses nothing an operator asks about.
	// Rounds inside the floor are not scraped; one timer records the
	// newest of them once the floor is up, so a burst followed by
	// idleness still lands within MinInterval, and Close records it at
	// once.
	MinInterval time.Duration
	// SLOs arms the burn-rate alert engine.
	SLOs []Objective
	// Logf receives alert transition and scrape-failure lines
	// (slog-compatible free-form); nil disables.
	Logf func(format string, args ...any)
}

// RecorderStats extends the store's accounting with scrape counters.
type RecorderStats struct {
	StoreStats
	// Scrapes counts completed scrapes.
	Scrapes uint64 `json:"scrapes"`
	// CoalescedRounds counts rounds never scraped because a newer round
	// was scraped first — the MinInterval floor at work, visible rather
	// than silent.
	CoalescedRounds uint64 `json:"coalesced_rounds"`
	// ParseErrors counts scrapes dropped because a line of the exposition
	// could not be read (see appendText).
	ParseErrors uint64 `json:"parse_errors"`
	// LastRound is the newest recorded round.
	LastRound uint64 `json:"last_round"`
	// AlertsFiring is the number of currently-firing burn-rate alerts.
	AlertsFiring int `json:"alerts_firing"`
}

// Recorder is the flight recorder. Create with New, feed rounds with
// Observe, query via Store()/Alerts(), stop with Close.
type Recorder struct {
	gather func() []byte
	cfg    Config
	store  *Store

	// obMu serializes scrapes and their scheduling: round loops (fleet
	// shards race), the floor timer, and Close.
	obMu     sync.Mutex
	lastSeen uint64      // newest round handed to Observe
	lastAt   time.Time   // wall time of the last scrape
	timer    *time.Timer // the floor timer; nil until first needed
	armed    bool        // timer pending
	closed   bool

	mu          sync.Mutex // guards scrape results + engine for readers
	lastScraped uint64
	scrapes     uint64
	coalesced   uint64
	parseErrors uint64
	engine      *sloEngine
}

// New builds a Recorder over gather, which renders the exposition to
// scrape. gather runs on the round loop that completes a due round (or
// on the floor timer, or in Close), outside any scheduler lock, but may
// itself take status locks. The SLO objectives are validated here so a
// bad config fails at boot, not at first alert.
func New(gather func() []byte, cfg Config) (*Recorder, error) {
	if gather == nil {
		return nil, fmt.Errorf("tsdb: gather is required")
	}
	engine, err := newSLOEngine(cfg.SLOs, cfg.Logf)
	if err != nil {
		return nil, err
	}
	return &Recorder{
		gather: gather,
		cfg:    cfg,
		store:  NewStore(cfg.MemoryBudgetBytes),
		engine: engine,
	}, nil
}

// Observe notes that round `round` completed. Non-increasing rounds are
// ignored, so fleet shards can all report their own counts and the
// recorder tracks the maximum — the fleet's progress clock. A new round
// is scraped inline, on the caller's goroutine, when MinInterval has
// passed since the last scrape.
func (r *Recorder) Observe(round uint64) {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	if round <= r.lastSeen || r.closed {
		return
	}
	r.lastSeen = round
	r.scheduleLocked()
}

// scheduleLocked scrapes the newest round if the floor is up, and
// otherwise arms the floor timer for the rest of it. Called with obMu
// held.
func (r *Recorder) scheduleLocked() {
	if r.cfg.MinInterval <= 0 || time.Since(r.lastAt) >= r.cfg.MinInterval {
		r.scrapeLocked(r.lastSeen)
		return
	}
	if r.armed {
		return
	}
	r.armed = true
	wait := r.cfg.MinInterval - time.Since(r.lastAt)
	if r.timer == nil {
		r.timer = time.AfterFunc(wait, r.fire)
	} else {
		r.timer.Reset(wait)
	}
}

// fire is the floor timer's callback: it records the newest round, or
// re-arms if an inline scrape moved the floor while it waited for obMu.
func (r *Recorder) fire() {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	r.armed = false
	if !r.closed && r.lastSeen > r.lastScraped {
		r.scheduleLocked()
	}
}

// scrapeLocked gathers, reads, appends, and re-evaluates alerts at
// `round`, counting the rounds it skipped past. A round already scraped
// is a no-op. Called with obMu held.
func (r *Recorder) scrapeLocked(round uint64) {
	last := r.lastScraped // written only under obMu
	if round <= last {
		return
	}
	r.lastAt = time.Now()
	if err := r.store.appendText(r.gather(), round); err != nil {
		r.mu.Lock()
		r.parseErrors++
		r.mu.Unlock()
		if r.cfg.Logf != nil {
			r.cfg.Logf("tsdb scrape parse error round=%d err=%v", round, err)
		}
		return
	}
	r.mu.Lock()
	if last > 0 {
		r.coalesced += round - last - 1
	}
	r.lastScraped = round
	r.scrapes++
	r.engine.evaluate(r.store, round)
	r.mu.Unlock()
}

// Close stops the floor timer and records the newest round if it was not
// scraped yet, so the tail of a run is never lost. Later rounds are
// ignored; the store stays queryable after Close.
func (r *Recorder) Close() {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
	}
	r.scrapeLocked(r.lastSeen)
}

// Store exposes the underlying store for queries.
func (r *Recorder) Store() *Store { return r.store }

// Stats snapshots the recorder's accounting.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	s := RecorderStats{
		Scrapes:         r.scrapes,
		CoalescedRounds: r.coalesced,
		ParseErrors:     r.parseErrors,
		LastRound:       r.lastScraped,
		AlertsFiring:    r.engine.firing(),
	}
	r.mu.Unlock()
	s.StoreStats = r.store.Stats()
	return s
}

// Alerts snapshots the SLO alert states, sorted, and how many of them
// are firing.
func (r *Recorder) Alerts() (alerts []Alert, firing int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.snapshot(), r.engine.firing()
}

// AppendMetrics renders the recorder's own exposition block (tsdb
// accounting plus the alerts-firing gauge) with the given metric name
// prefix.
func (r *Recorder) AppendMetrics(b []byte, prefix string) []byte {
	st := r.Stats()
	row := func(typ, name, help string, v float64) {
		b = obs.AppendHeader(b, prefix+name, typ, help)
		b = obs.AppendSample(b, prefix+name, "", v)
	}
	row("gauge", "tsdb_series", "Live series in the metrics flight recorder.", float64(st.Series))
	row("gauge", "tsdb_bytes", "Approximate compressed bytes held by the flight recorder.", float64(st.Bytes))
	row("gauge", "tsdb_budget_bytes", "Flight recorder memory budget.", float64(st.BudgetBytes))
	row("counter", "tsdb_samples_total", "Samples appended to the flight recorder.", float64(st.Samples))
	row("counter", "tsdb_evicted_chunks_total", "Oldest-window chunks evicted to stay under budget.", float64(st.EvictedChunks))
	row("counter", "tsdb_evicted_samples_total", "Samples lost to chunk eviction.", float64(st.EvictedSamples))
	row("counter", "tsdb_scrapes_total", "Completed round-clock scrapes.", float64(st.Scrapes))
	row("counter", "tsdb_coalesced_rounds_total", "Rounds never scraped because the scrape interval floor passed them over for a newer round.", float64(st.CoalescedRounds))
	row("counter", "tsdb_parse_errors_total", "Scrapes dropped because a line of the exposition could not be read.", float64(st.ParseErrors))
	row("gauge", "alerts_firing", "Burn-rate SLO alerts currently firing.", float64(st.AlertsFiring))
	return b
}
