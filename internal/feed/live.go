package feed

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/forecast"
	"waterwise/internal/units"
)

// Defaults of LiveConfig (applied by NewLive when the field is zero), and
// the two fallback-forecast constants.
const (
	// DefaultLiveTTL is how long a fetched reading counts as fresh.
	DefaultLiveTTL = 5 * time.Minute
	// DefaultLiveTimeout bounds one upstream request.
	DefaultLiveTimeout = 5 * time.Second
	// DefaultLiveMinInterval is the per-region rate limit: the shortest
	// gap between two upstream fetches, however often At is called.
	DefaultLiveMinInterval = time.Second
	// DefaultLiveMaxBackoff caps the exponential backoff between retries
	// while the upstream keeps failing.
	DefaultLiveMaxBackoff = 5 * time.Minute
	// DefaultLiveForecastHorizon is how far past the last good reading
	// the fallback keeps serving forecasts before Health reports the
	// feed as beyond recovery (At still answers — it never blocks or
	// fails — the horizon is an observability threshold, not a cutoff).
	DefaultLiveForecastHorizon = 24 * time.Hour
	// DefaultLiveSeasonalDays is the trailing window of the
	// seasonal-naive fallback forecaster.
	DefaultLiveSeasonalDays = 2
)

// LiveConfig parameterizes the Live provider. Zero values take the
// defaults above; BaseURL and Regions are required.
type LiveConfig struct {
	// BaseURL is the feed service root; Live fetches
	// GET {BaseURL}/v1/environment/{region}.
	BaseURL string
	// Regions lists the region keys to serve.
	Regions []string
	// Token, when set, is sent as the electricityMaps-style "auth-token"
	// header on every request.
	Token string
	// TTL is the freshness window of a fetched reading; an At call
	// inside it is a cache hit and triggers no request.
	TTL time.Duration
	// Timeout bounds one upstream request (connect + response).
	Timeout time.Duration
	// MinInterval is the per-region rate limit between fetches.
	MinInterval time.Duration
	// MaxBackoff caps the exponential backoff applied after consecutive
	// fetch failures (a 429 Retry-After header overrides the computed
	// backoff when it asks for longer).
	MaxBackoff time.Duration
	// ForecastAfter is the staleness beyond which At degrades from the
	// raw stale value to the seasonal-naive forecast; 0 means 3×TTL.
	ForecastAfter time.Duration
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// livePayload is the wire schema of one region reading, shaped after the
// electricityMaps power-breakdown response: a zone, the observation
// datetime, and a generation breakdown by source name — absolute power is
// fine, Live normalizes shares — plus the site signals the scheduler
// needs (wet-bulb; optional pue/wsf overrides).
type livePayload struct {
	Zone           string             `json:"zone"`
	Datetime       time.Time          `json:"datetime"`
	PowerBreakdown map[string]float64 `json:"powerBreakdown"`
	WetBulbC       float64            `json:"wetBulbC"`
	PUE            float64            `json:"pue"`
	WSF            *float64           `json:"wsf"`
}

// liveRegion is one region's cache line and fetch gate.
type liveRegion struct {
	key    string
	sample Sample    // last good reading
	goodAt time.Time // wall instant sample was fetched
	// notBefore gates the next fetch (rate limit + backoff); inflight is
	// the single-flight latch.
	notBefore time.Time
	backoff   time.Duration
	inflight  bool
	// Fallback forecasters, fed one observation per successful fetch:
	// the wet-bulb scalar and each source's share.
	wetPred *forecast.SeasonalNaive
	mixPred map[energy.Source]*forecast.SeasonalNaive
}

// Live polls an electricityMaps-style HTTP feed and serves it through the
// Provider contract without ever blocking a caller: At answers from the
// TTL cache, kicks an asynchronous single-flight refresh when the cache
// has expired (rate-limited, with exponential backoff while the upstream
// fails), and degrades through stale values to a seasonal-naive forecast
// — a feed outage makes readings stale (visible in Health, /v1/status,
// and /metrics), never makes a scheduling round wait. Construction primes
// the cache synchronously and fails fast if the upstream is unreachable.
// Safe for concurrent use.
type Live struct {
	cfg    LiveConfig
	client *http.Client
	now    func() time.Time // injectable for tests

	mu      sync.Mutex
	keys    []string
	regions map[string]*liveRegion

	fetches, fetchErrors   uint64
	cacheHits, cacheMisses uint64
	forecastServed         uint64
	lastErr                string
}

// NewLive validates cfg, primes every region's cache with one synchronous
// fetch (failing fast on an unreachable or misbehaving upstream), and
// returns the provider.
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("feed: live provider needs a base URL")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("feed: live base URL: %w", err)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("feed: live provider needs at least one region")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultLiveTTL
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultLiveTimeout
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = DefaultLiveMinInterval
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultLiveMaxBackoff
	}
	if cfg.ForecastAfter <= 0 {
		cfg.ForecastAfter = 3 * cfg.TTL
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	l := &Live{
		cfg:     cfg,
		client:  client,
		now:     time.Now,
		regions: make(map[string]*liveRegion, len(cfg.Regions)),
	}
	for _, key := range cfg.Regions {
		if key == "" {
			return nil, fmt.Errorf("feed: live provider given an empty region key")
		}
		if _, dup := l.regions[key]; dup {
			return nil, fmt.Errorf("feed: duplicate live region %q", key)
		}
		wet, err := forecast.NewSeasonalNaive(DefaultLiveSeasonalDays)
		if err != nil {
			return nil, err
		}
		r := &liveRegion{key: key, wetPred: wet, mixPred: make(map[energy.Source]*forecast.SeasonalNaive)}
		for _, src := range energy.AllSources() {
			p, err := forecast.NewSeasonalNaive(DefaultLiveSeasonalDays)
			if err != nil {
				return nil, err
			}
			r.mixPred[src] = p
		}
		l.keys = append(l.keys, key)
		l.regions[key] = r
	}
	// Prime: one synchronous fetch per region. A dead upstream surfaces
	// here, at construction, instead of as permanently failing rounds.
	for _, key := range l.keys {
		sample, err := l.fetch(key)
		if err != nil {
			return nil, fmt.Errorf("feed: priming live region %q: %w", key, err)
		}
		l.mu.Lock()
		l.fetches++
		l.storeLocked(l.regions[key], sample)
		l.mu.Unlock()
	}
	return l, nil
}

// Name implements Provider.
func (*Live) Name() string { return "live" }

// Regions implements Provider.
func (l *Live) Regions() []string { return append([]string(nil), l.keys...) }

// ForecastHorizon implements Provider.
func (l *Live) ForecastHorizon() time.Duration { return DefaultLiveForecastHorizon }

// At implements Provider. It never performs I/O: a fresh cache line
// answers directly; an expired one answers stale (or, past
// ForecastAfter, from the seasonal-naive forecast) while a background
// refresh runs — gated by the rate limit, the failure backoff, and a
// single-flight latch. The instant t only parameterizes the forecast;
// the cache is keyed on wall time, which is the meaningful reading for a
// service running in real time (TimeScale 1).
func (l *Live) At(key string, t time.Time) (Sample, error) {
	l.mu.Lock()
	r, ok := l.regions[key]
	if !ok {
		l.mu.Unlock()
		return Sample{}, fmt.Errorf("feed: live provider has no region %q", key)
	}
	now := l.now()
	age := now.Sub(r.goodAt)
	if age <= l.cfg.TTL {
		l.cacheHits++
		s := r.sample
		l.mu.Unlock()
		return s, nil
	}
	l.cacheMisses++
	if !r.inflight && !now.Before(r.notBefore) {
		r.inflight = true
		go l.refresh(key)
	}
	var s Sample
	if age > l.cfg.ForecastAfter {
		l.forecastServed++
		s = l.forecastLocked(r, t)
	} else {
		s = r.sample
	}
	l.mu.Unlock()
	return s, nil
}

// refresh fetches one region in the background and updates its cache
// line, backoff state, and the provider counters.
func (l *Live) refresh(key string) {
	sample, err := l.fetch(key)
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.regions[key]
	r.inflight = false
	l.fetches++
	now := l.now()
	if err != nil {
		l.fetchErrors++
		l.lastErr = err.Error()
		if r.backoff < l.cfg.MinInterval {
			r.backoff = l.cfg.MinInterval
		} else {
			r.backoff *= 2
		}
		if r.backoff > l.cfg.MaxBackoff {
			r.backoff = l.cfg.MaxBackoff
		}
		wait := r.backoff
		if ra, ok := retryAfter(err); ok && ra > wait {
			wait = ra
		}
		r.notBefore = now.Add(wait)
		return
	}
	r.backoff = 0
	r.notBefore = now.Add(l.cfg.MinInterval)
	l.storeLocked(r, sample)
}

// storeLocked installs a good reading and feeds the fallback
// forecasters. Called with l.mu held.
func (l *Live) storeLocked(r *liveRegion, s Sample) {
	r.sample = s
	r.goodAt = l.now()
	at := s.Time
	if at.IsZero() {
		at = r.goodAt
	}
	r.wetPred.Observe(at, float64(s.WetBulb))
	for _, src := range energy.AllSources() {
		r.mixPred[src].Observe(at, s.Mix[src])
	}
}

// forecastLocked builds a predicted sample for instant t from the
// region's forecasters. A cold forecaster falls back to persistence —
// i.e. the stale value — so this path degrades gracefully from day one.
// Called with l.mu held.
func (l *Live) forecastLocked(r *liveRegion, t time.Time) Sample {
	s := Sample{Time: t, PUE: r.sample.PUE, WSF: r.sample.WSF}
	if v, ok := r.wetPred.Predict(t); ok {
		s.WetBulb = units.Celsius(v)
	} else {
		s.WetBulb = r.sample.WetBulb
	}
	total := 0.0
	for _, src := range energy.AllSources() {
		v, ok := r.mixPred[src].Predict(t)
		if !ok {
			v = r.sample.Mix[src]
		}
		if v < 0 {
			v = 0
		}
		s.Mix[src] = v
		total += v
	}
	if total <= 0 {
		s.Mix = r.sample.Mix
		return s
	}
	s.Mix = s.Mix.Normalize()
	return s
}

// httpStatusError carries the status code of a non-2xx reply so the
// backoff can honor 429 Retry-After.
type httpStatusError struct {
	status     int
	retryAfter time.Duration
}

// Error implements error, naming the status and any requested delay.
func (e *httpStatusError) Error() string {
	if e.status == http.StatusTooManyRequests && e.retryAfter > 0 {
		return fmt.Sprintf("upstream status %d (retry after %v)", e.status, e.retryAfter)
	}
	return fmt.Sprintf("upstream status %d", e.status)
}

// retryAfter extracts the upstream's requested delay from a 429 error.
func retryAfter(err error) (time.Duration, bool) {
	se, ok := err.(*httpStatusError)
	if !ok || se.retryAfter <= 0 {
		return 0, false
	}
	return se.retryAfter, true
}

// fetch performs one upstream request and validates the payload into a
// Sample. It is the only method that touches the network and is never
// called with l.mu held.
func (l *Live) fetch(key string) (Sample, error) {
	u := strings.TrimSuffix(l.cfg.BaseURL, "/") + "/v1/environment/" + url.PathEscape(key)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return Sample{}, err
	}
	if l.cfg.Token != "" {
		req.Header.Set("auth-token", l.cfg.Token)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return Sample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		se := &httpStatusError{status: resp.StatusCode}
		if resp.StatusCode == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
				se.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return Sample{}, se
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Sample{}, fmt.Errorf("reading body: %w", err)
	}
	var p livePayload
	if err := json.Unmarshal(body, &p); err != nil {
		return Sample{}, fmt.Errorf("decoding payload: %w", err)
	}
	return sampleFromPayload(key, p)
}

// sampleFromPayload validates a payload into a Sample: known sources,
// finite non-negative breakdown with positive total (normalized to
// shares), finite plausible wet-bulb, positive/non-negative overrides.
func sampleFromPayload(key string, p livePayload) (Sample, error) {
	if p.Zone != "" && p.Zone != key {
		return Sample{}, fmt.Errorf("payload zone %q, want %q", p.Zone, key)
	}
	var mix energy.Mix
	total := 0.0
	for name, v := range p.PowerBreakdown {
		src, ok := sourceByName[name]
		if !ok {
			return Sample{}, fmt.Errorf("unknown energy source %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Sample{}, fmt.Errorf("source %q value %g is not a finite non-negative number", name, v)
		}
		mix[src] = v
		total += v
	}
	if total <= 0 {
		return Sample{}, fmt.Errorf("power breakdown total %g is not positive", total)
	}
	if math.IsNaN(p.WetBulbC) || p.WetBulbC < -60 || p.WetBulbC > 60 {
		return Sample{}, fmt.Errorf("wet-bulb %g outside the plausible [-60, 60] °C", p.WetBulbC)
	}
	s := Sample{
		Time:    p.Datetime,
		Mix:     mix.Normalize(),
		WetBulb: units.Celsius(p.WetBulbC),
		WSF:     UnsetWSF,
	}
	if p.PUE != 0 {
		if p.PUE < 1 || math.IsInf(p.PUE, 0) || math.IsNaN(p.PUE) {
			return Sample{}, fmt.Errorf("pue %g is not a finite value >= 1", p.PUE)
		}
		s.PUE = p.PUE
	}
	if p.WSF != nil {
		if *p.WSF < 0 || math.IsInf(*p.WSF, 0) || math.IsNaN(*p.WSF) {
			return Sample{}, fmt.Errorf("wsf %g is not a finite non-negative value", *p.WSF)
		}
		s.WSF = *p.WSF
	}
	return s, nil
}

// Health implements HealthReporter: staleness is the age of the oldest
// region's last good reading, and Stale reports any region past the TTL.
func (l *Live) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := Health{
		Provider:       "live",
		Regions:        len(l.keys),
		Fetches:        l.fetches,
		FetchErrors:    l.fetchErrors,
		CacheHits:      l.cacheHits,
		CacheMisses:    l.cacheMisses,
		ForecastServed: l.forecastServed,
		LastError:      l.lastErr,
	}
	now := l.now()
	for _, key := range l.keys {
		age := now.Sub(l.regions[key].goodAt)
		if age.Seconds() > h.StalenessSeconds {
			h.StalenessSeconds = age.Seconds()
		}
		if age > l.cfg.TTL {
			h.Stale = true
		}
	}
	return h
}
