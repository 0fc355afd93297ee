// The recorder ties the store to a metrics exposition: on every scheduler
// round it gathers the Prometheus text the server already serves, parses
// it with the strict in-repo parser, appends every sample at the round
// index, and re-evaluates the SLO engine. Scraping its own exposition —
// rather than reaching into internals — means anything rendered on
// /metrics is automatically queryable over time, including series added
// by future PRs.
package tsdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waterwise/internal/obs"
)

// Config configures a Recorder.
type Config struct {
	// Gather renders the exposition to scrape. Required. It is invoked
	// outside any scheduler lock (the round hooks guarantee this) but may
	// itself take status locks.
	Gather func() []byte
	// MemoryBudgetBytes bounds the compressed store; <= 0 means 8 MiB.
	MemoryBudgetBytes int
	// Sync scrapes inline on the round-clock callers' goroutine, making
	// recorded history deterministic — what scenarios and tests want. The
	// default (async) hands rounds to a scraper goroutine that coalesces
	// to the newest round under pressure, bounding the cost added to the
	// scheduling loop to an atomic store and a channel poke.
	Sync bool
	// MinInterval floors the wall-clock spacing of async scrapes: at most
	// one scrape per interval, always recording the newest pending round
	// (skips count as coalesced). An accelerated daemon can run hundreds
	// of rounds per second, and a full gather+parse per round would eat
	// the machine; a flight recorder at a few Hz loses nothing an
	// operator asks about. Zero means no floor. Ignored in Sync mode,
	// where determinism is the point, and by the Close drain, so the
	// final round is always recorded.
	MinInterval time.Duration
	// Objectives arms the SLO engine.
	Objectives []Objective
	// Logf receives alert transition and scrape-failure lines
	// (slog-compatible free-form); nil disables.
	Logf func(format string, args ...any)
}

// RecorderStats extends the store's accounting with scrape counters.
type RecorderStats struct {
	StoreStats
	// Scrapes counts completed scrapes.
	Scrapes uint64 `json:"scrapes"`
	// CoalescedRounds counts rounds the async scraper skipped because a
	// newer round was already pending — bounded-overhead by design, and
	// visible rather than silent.
	CoalescedRounds uint64 `json:"coalesced_rounds"`
	// ParseErrors counts scrapes dropped because the exposition failed
	// the strict parser.
	ParseErrors uint64 `json:"parse_errors"`
	// LastRound is the newest recorded round.
	LastRound uint64 `json:"last_round"`
	// AlertsFiring is the number of currently-firing burn-rate alerts.
	AlertsFiring int `json:"alerts_firing"`
}

// Recorder is the flight recorder. Create with New, feed rounds with
// Observe, query via Store()/Alerts(), stop with Close.
type Recorder struct {
	cfg   Config
	store *Store

	obMu     sync.Mutex // serializes Observe callers (fleet shards race)
	lastSeen uint64     // newest round handed to Observe

	mu          sync.Mutex // guards scrape state + engine
	lastScraped uint64
	scrapes     uint64
	coalesced   uint64
	parseErrors uint64
	engine      *sloEngine

	pending atomic.Uint64
	wake    chan struct{}
	done    chan struct{}
	closed  atomic.Bool
}

// New builds a Recorder. The SLO objectives are validated here so a bad
// config fails at boot, not at first alert.
func New(cfg Config) (*Recorder, error) {
	if cfg.Gather == nil {
		return nil, fmt.Errorf("tsdb: Config.Gather is required")
	}
	engine, err := newSLOEngine(cfg.Objectives, cfg.Logf)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		cfg:    cfg,
		store:  NewStore(cfg.MemoryBudgetBytes),
		engine: engine,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if !cfg.Sync {
		go r.loop()
	} else {
		close(r.done)
	}
	return r, nil
}

// Observe notes that round `round` completed. Non-increasing rounds are
// ignored, so fleet shards can all report their own counts and the
// recorder tracks the maximum — the fleet's progress clock.
func (r *Recorder) Observe(round uint64) {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	if round <= r.lastSeen || r.closed.Load() {
		return
	}
	r.lastSeen = round
	if r.cfg.Sync {
		// Inline under obMu: concurrent round threads (fleet shards)
		// serialize here, so every due round is scraped exactly once and
		// in order — the determinism scenarios rely on.
		r.scrape(round)
		return
	}
	r.pending.Store(round)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *Recorder) lastScrapedSnapshot() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastScraped
}

// loop is the async scraper: each wake-up scrapes the newest pending
// round, counting the rounds it skipped past. With MinInterval set it
// sleeps out the remainder of the floor first — and scrapes whatever
// round is newest by then, so a burst of fast rounds costs one scrape.
func (r *Recorder) loop() {
	defer close(r.done)
	var lastAt time.Time
	for range r.wake {
		if r.cfg.MinInterval > 0 && !lastAt.IsZero() && !r.closed.Load() {
			if wait := r.cfg.MinInterval - time.Since(lastAt); wait > 0 {
				time.Sleep(wait)
			}
		}
		round := r.pending.Load()
		last := r.lastScrapedSnapshot()
		if round <= last {
			continue
		}
		if skipped := round - last; skipped > 1 {
			r.mu.Lock()
			r.coalesced += skipped - 1
			r.mu.Unlock()
		}
		r.scrape(round)
		lastAt = time.Now()
	}
}

// scrape gathers, parses, appends, and re-evaluates alerts at `round`.
func (r *Recorder) scrape(round uint64) {
	data := r.cfg.Gather()
	fams, err := obs.ParseProm(data)
	if err != nil {
		r.mu.Lock()
		r.parseErrors++
		r.mu.Unlock()
		if r.cfg.Logf != nil {
			r.cfg.Logf("tsdb scrape parse error round=%d err=%v", round, err)
		}
		return
	}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			r.store.Append(Key(s.Name, s.Labels), round, s.Value)
		}
	}
	r.mu.Lock()
	if round > r.lastScraped {
		r.lastScraped = round
	}
	r.scrapes++
	r.engine.evaluate(r.store, round)
	r.mu.Unlock()
}

// Close stops the async scraper and waits for it to drain. The store
// stays queryable after Close.
func (r *Recorder) Close() {
	r.obMu.Lock()
	if r.closed.Swap(true) {
		r.obMu.Unlock()
		return
	}
	if !r.cfg.Sync {
		close(r.wake)
	}
	r.obMu.Unlock()
	<-r.done
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

// Alerts snapshots the SLO alert states, sorted.
func (r *Recorder) Alerts() []Alert {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.snapshot()
}

// Query returns raw samples of one series reference over [from, to].
func (r *Recorder) Query(ref string, from, to uint64) []Sample {
	return r.store.Query(ref, from, to)
}

// Increase delegates to the store's windowed counter growth (query.go).
func (r *Recorder) Increase(ref string, window, end uint64) (float64, bool) {
	return r.store.Increase(ref, window, end)
}

// Rate delegates to the store's per-round rate (query.go).
func (r *Recorder) Rate(ref string, window, end uint64) (float64, bool) {
	return r.store.Rate(ref, window, end)
}

// Quantile delegates to the store's windowed histogram quantile
// reconstruction (query.go).
func (r *Recorder) Quantile(ref string, q float64, window, end uint64) (float64, bool) {
	return r.store.QuantileOver(ref, q, window, end)
}

// LastRound is the newest recorded round.
func (r *Recorder) LastRound() uint64 { return r.store.LastRound() }

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
	row("counter", "tsdb_coalesced_rounds_total", "Rounds skipped by the async scraper because a newer round was pending.", float64(st.CoalescedRounds))
	row("counter", "tsdb_parse_errors_total", "Scrapes dropped by the strict exposition parser.", float64(st.ParseErrors))
	row("gauge", "alerts_firing", "Burn-rate SLO alerts currently firing.", float64(st.AlertsFiring))
	return b
}
