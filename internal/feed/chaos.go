package feed

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waterwise/internal/energy"
)

// Fault names one injectable feed failure mode for the Chaos wrapper.
type Fault int32

// The Chaos fault modes. FaultNone is the zero value: full passthrough.
const (
	// FaultNone disables injection: At and Transport delegate unchanged.
	FaultNone Fault = iota
	// FaultOutage emulates an unreachable upstream: the Provider view
	// serves each region's last good sample, the last reading Chaos
	// served for it to any caller (readings age, Health goes stale — a
	// feed outage never errors a scheduling round), and the
	// Transport view fails every request with a connection-style error.
	FaultOutage
	// FaultThrottle emulates a rate-limiting upstream: the Provider view
	// keeps serving (throttling starves refreshes, it does not corrupt
	// cached data), and the Transport view answers 429 with a Retry-After
	// header — the storm the Live provider's backoff must honor.
	FaultThrottle
)

// String names the fault mode for reports and logs.
func (f Fault) String() string {
	switch f {
	case FaultOutage:
		return "outage"
	case FaultThrottle:
		return "throttle"
	default:
		return "none"
	}
}

// Chaos wraps an inner Provider with switchable fault injection — the
// feed half of the scenario harness (internal/scenario). It serves two
// views of the same fault switch:
//
//   - the Provider view (Chaos itself) for environments built directly
//     over a deterministic provider: with no fault it is a pure
//     passthrough (same samples, same decisions — the no-fault
//     equivalence test pins this), and during an outage it serves each
//     region's last good sample while Health reports rising staleness;
//   - the Transport view (Transport method) for environments built over
//     a Live provider: an http.RoundTripper serving the inner provider
//     as an electricityMaps-style upstream, failing or throttling
//     according to the same switch, so Live's TTL/backoff/fallback
//     ladder is exercised by scenario fault schedules instead of
//     bespoke httptest servers.
//
// SetFault may be called at any time from any goroutine; At and the
// Transport are safe for concurrent use.
type Chaos struct {
	inner Provider
	mode  atomic.Int32
	// retryAfter is the Retry-After delay (seconds, atomic) the Transport
	// advertises during FaultThrottle.
	retryAfter atomic.Int64
	// faultAt is the wall instant the current fault began (UnixNano),
	// for staleness accounting during an outage.
	faultAt atomic.Int64

	mu   sync.Mutex
	last map[string]Sample // last good sample per region, for outage serving
}

// NewChaos wraps inner. The wrapper starts in FaultNone: bit-for-bit
// passthrough.
func NewChaos(inner Provider) *Chaos {
	return &Chaos{inner: inner, last: make(map[string]Sample)}
}

// SetFault switches the active fault mode. retryAfter configures the
// Retry-After header advertised during FaultThrottle (ignored otherwise;
// zero omits the header).
func (c *Chaos) SetFault(f Fault, retryAfter time.Duration) {
	c.retryAfter.Store(int64(retryAfter / time.Second))
	c.faultAt.Store(time.Now().UnixNano())
	c.mode.Store(int32(f))
}

// Name implements Provider, delegating to the inner provider (the
// wrapper is transparent to anything keying on provider identity).
func (c *Chaos) Name() string { return c.inner.Name() }

// Regions implements Provider by delegation — the wrapper must keep the
// region set intact so environment construction validates unchanged.
func (c *Chaos) Regions() []string { return c.inner.Regions() }

// ForecastHorizon implements Provider by delegation.
func (c *Chaos) ForecastHorizon() time.Duration { return c.inner.ForecastHorizon() }

// At implements Provider. FaultNone delegates (one atomic load on the
// hot path — exactly free); FaultOutage serves the region's last good
// sample, holding the world still the way a dead upstream holds a TTL
// cache still; FaultThrottle delegates (throttling is a Transport-level
// fault). The first At per region always reaches the inner provider, so
// an outage injected before any reading still answers.
//
// The last good sample is the last reading Chaos served for the region,
// whoever asked. A region.Environment in front of Chaos answers from its
// snapshot memo until the instant leaves the window of the reading it
// stored, so an outage shows there from the next window on. Hold windows
// pass through unchanged, in an outage too: a memo stores a reading only
// for instants inside its window, where the inner provider answers the
// same.
func (c *Chaos) At(key string, t time.Time) (Sample, error) {
	if Fault(c.mode.Load()) == FaultOutage {
		c.mu.Lock()
		s, ok := c.last[key]
		c.mu.Unlock()
		if ok {
			return s, nil
		}
		// No reading cached yet: fall through to the inner provider so a
		// cold region is primed rather than erroring a round.
	}
	s, err := c.inner.At(key, t)
	if err != nil {
		return s, err
	}
	c.mu.Lock()
	c.last[key] = s
	c.mu.Unlock()
	return s, nil
}

// Health implements HealthReporter: the inner provider's health (or a
// trivially fresh record for deterministic providers), overlaid with the
// injected fault — during an outage staleness is the wall time since the
// fault began and Stale is set, so the status and metrics surfaces show
// exactly what a real dead upstream would.
func (c *Chaos) Health() Health {
	h := HealthOf(c.inner)
	switch Fault(c.mode.Load()) {
	case FaultOutage:
		age := time.Since(time.Unix(0, c.faultAt.Load())).Seconds()
		if age > h.StalenessSeconds {
			h.StalenessSeconds = age
		}
		h.Stale = true
		h.LastError = "injected outage"
	case FaultThrottle:
		h.LastError = "injected 429 storm"
	}
	return h
}

// chaosTransport is the RoundTripper view of a Chaos switch.
type chaosTransport struct{ c *Chaos }

// Transport returns an http.RoundTripper serving the inner provider as
// an electricityMaps-style upstream (GET …/v1/environment/{region}),
// subject to the same fault switch: healthy requests answer 200 with a
// Live-compatible payload sampled from the inner provider at the current
// wall instant, FaultOutage fails the request outright (a
// connection-level error, what an unreachable host produces), and
// FaultThrottle answers 429 with the configured Retry-After. Install it
// as LiveConfig.Client's transport to put a Live provider under
// scenario-controlled fault schedules with no network and no test
// server.
func (c *Chaos) Transport() http.RoundTripper { return chaosTransport{c} }

// RoundTrip implements http.RoundTripper.
func (t chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch Fault(t.c.mode.Load()) {
	case FaultOutage:
		return nil, fmt.Errorf("feed: injected outage: %s unreachable", req.URL.Host)
	case FaultThrottle:
		resp := &http.Response{
			StatusCode: http.StatusTooManyRequests,
			Status:     "429 Too Many Requests",
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("injected 429 storm")),
			Request:    req,
		}
		if ra := t.c.retryAfter.Load(); ra > 0 {
			resp.Header.Set("Retry-After", strconv.FormatInt(ra, 10))
		}
		return resp, nil
	}
	const prefix = "/v1/environment/"
	if !strings.HasPrefix(req.URL.Path, prefix) {
		return &http.Response{
			StatusCode: http.StatusNotFound,
			Status:     "404 Not Found",
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("unknown path")),
			Request:    req,
		}, nil
	}
	key := strings.TrimPrefix(req.URL.Path, prefix)
	s, err := t.c.At(key, time.Now().UTC())
	if err != nil {
		return &http.Response{
			StatusCode: http.StatusNotFound,
			Status:     "404 Not Found",
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader(err.Error())),
			Request:    req,
		}, nil
	}
	payload := livePayload{
		Zone:           key,
		Datetime:       s.Time,
		PowerBreakdown: make(map[string]float64, len(energy.AllSources())),
		WetBulbC:       float64(s.WetBulb),
	}
	for _, src := range energy.AllSources() {
		if v := s.Mix[src]; v != 0 {
			payload.PowerBreakdown[src.String()] = v
		}
	}
	if s.PUE > 0 {
		payload.PUE = s.PUE
	}
	if s.WSF >= 0 {
		wsf := s.WSF
		payload.WSF = &wsf
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(string(body))),
		Request:    req,
	}, nil
}
