// Package feed abstracts where the environment's sustainability signals —
// per-region grid energy mixes and wet-bulb temperatures — come from. The
// scheduler stack reads region conditions through region.Environment, and an
// Environment reads them through a feed.Provider, so the same solver and
// serving layers run unchanged against three signal sources:
//
//   - Synthetic: the paper's deterministic generators (internal/gridmix,
//     internal/weather) behind the interface — bit-for-bit the series the
//     seeded simulator has always produced;
//   - Replay: a recorded trace file (JSON or CSV, see Trace) with schema
//     validation and configurable interpolation — captured from a synthetic
//     run by Record (waterwised -record) or converted from real data;
//   - Live: an electricityMaps-style HTTP client with TTL caching, rate
//     limiting, exponential backoff, and stale-value/forecast fallback that
//     never blocks a scheduling round.
//
// Providers identify regions by plain string keys (the string form of
// region.ID); this package sits below internal/region in the layering so the
// Environment can be built on top of it.
package feed

import (
	"fmt"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/gridmix"
	"waterwise/internal/units"
	"waterwise/internal/weather"
)

// UnsetWSF is the Sample.WSF sentinel meaning "no override: use the
// region's static water scarcity factor". (0 is a legitimate scarcity
// reading, so absence needs an out-of-band value; WSF is never negative.)
const UnsetWSF = -1

// Sample is one region's raw environment reading at one instant: the
// signals a provider serves, before the factor table turns them into a
// region.Snapshot.
type Sample struct {
	// Time is the instant the reading describes. Synthetic and Replay
	// echo the queried instant; Live reports the upstream datetime of the
	// cached observation.
	Time time.Time
	// Mix is the normalized grid energy mix (shares sum to 1).
	Mix energy.Mix
	// WetBulb is the site wet-bulb temperature; the Environment converts
	// it to WUE via weather.WUEFromWetBulb.
	WetBulb units.Celsius
	// PUE optionally overrides the region's static power usage
	// effectiveness; 0 (or negative) means "use the static value".
	PUE float64
	// WSF optionally overrides the region's static water scarcity factor;
	// UnsetWSF (any negative value) means "use the static value".
	WSF float64
	// HeldFrom and HeldUntil promise that At returns this same reading,
	// Time aside, for every instant in [HeldFrom, HeldUntil) — the span of
	// the series interval the reading came from. A zero HeldUntil promises
	// nothing. The window may be narrower than the real one, never wider;
	// region.Environment relies on it to derive each snapshot once per
	// interval.
	HeldFrom, HeldUntil time.Time
}

// Provider serves per-region, per-timestep environment samples. All three
// implementations in this package are safe for concurrent use, and At
// never blocks on I/O: Synthetic and Replay are pure in-memory lookups,
// and Live answers from its cache (refreshing in the background) — a
// provider failure can make readings stale, never make a scheduling round
// wait.
type Provider interface {
	// Name identifies the provider kind ("synthetic", "replay", "live").
	Name() string
	// Regions lists the region keys the provider answers for, in
	// registration order.
	Regions() []string
	// At returns the sample for the region key at instant t. Instants
	// outside the provider's covered span clamp to the nearest covered
	// sample (the hold semantics every series in this codebase uses).
	// An unknown key is an error; for Synthetic and Replay it is the
	// only error.
	At(key string, t time.Time) (Sample, error)
	// ForecastHorizon reports how far past the provider's newest
	// observation At answers with *predicted* rather than observed data:
	// zero for the deterministic Synthetic and Replay providers (their
	// whole span is "observed"), and the configured horizon for Live,
	// whose fallback serves forecasts while the upstream is unreachable.
	ForecastHorizon() time.Duration
}

// Health is a provider's self-reported freshness and fetch accounting —
// what the serving layer surfaces in /v1/status and /metrics so feed
// degradation is visible before it shows up in decisions.
type Health struct {
	// Provider is the provider kind (Provider.Name).
	Provider string `json:"provider"`
	// Regions is the number of region keys served.
	Regions int `json:"regions"`
	// StalenessSeconds is the age of the oldest region's last good
	// reading (0 for the deterministic providers, whose data never ages).
	StalenessSeconds float64 `json:"staleness_seconds"`
	// Stale reports that at least one region's reading is older than the
	// provider's freshness target (Live's TTL).
	Stale bool `json:"stale"`
	// Fetches and FetchErrors count upstream requests and their failures.
	Fetches     uint64 `json:"fetches,omitempty"`
	FetchErrors uint64 `json:"fetch_errors,omitempty"`
	// CacheHits and CacheMisses count At calls answered fresh vs. past
	// the freshness target.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	// ForecastServed counts At calls degraded all the way to the
	// forecast fallback.
	ForecastServed uint64 `json:"forecast_served,omitempty"`
	// LastError is the most recent fetch failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// HealthReporter is implemented by providers that track freshness and
// fetch accounting (Live). Deterministic providers have nothing to
// report; HealthOf synthesizes a trivially healthy record for them.
type HealthReporter interface {
	// Health returns a point-in-time health snapshot.
	Health() Health
}

// HealthOf returns p's health: its own report when p tracks one, or a
// trivially fresh record naming the provider otherwise.
func HealthOf(p Provider) Health {
	if hr, ok := p.(HealthReporter); ok {
		return hr.Health()
	}
	return Health{Provider: p.Name(), Regions: len(p.Regions())}
}

// Series samples the provider hourly over [start, start+hours) for one
// region and extracts a scalar per sample — the bridge between a Provider
// and the []float64 series internal/forecast's Evaluate consumes, so
// forecast error measurement runs against synthetic, replayed, and live
// signals alike.
func Series(p Provider, key string, start time.Time, hours int, f func(Sample) float64) ([]float64, error) {
	if hours <= 0 {
		return nil, fmt.Errorf("feed: series needs a positive horizon, got %d hours", hours)
	}
	out := make([]float64, hours)
	for h := 0; h < hours; h++ {
		s, err := p.At(key, start.Add(time.Duration(h)*time.Hour))
		if err != nil {
			return nil, err
		}
		out[h] = f(s)
	}
	return out, nil
}

// Per-region seed strides of the synthetic generators. These are load-
// bearing constants: every replay-equivalence guarantee in the repo
// assumes region i of a seed-s environment draws its grid series from
// seed s+i*gridSeedStride and its weather series from s+i*wxSeedStride+1,
// exactly as region.NewEnvironment always has.
const (
	gridSeedStride = 7919
	wxSeedStride   = 104729
)

// SyntheticRegion describes one region's generator parameters for
// NewSynthetic.
type SyntheticRegion struct {
	// Key is the region key (the string form of region.ID).
	Key string
	// Grid parameterizes the gridmix generator.
	Grid gridmix.Params
	// Climate parameterizes the wet-bulb weather generator.
	Climate weather.Params
}

// Synthetic serves the paper's deterministic synthetic series: the
// gridmix and weather generators, produced once at construction and read
// immutably afterwards. Identical inputs (regions in order, start, hours,
// seed) always produce the identical samples — and they are bit-for-bit
// the samples region.NewEnvironment has always served, so swapping the
// provider in changes no decision anywhere. Safe for concurrent use.
type Synthetic struct {
	start time.Time
	hours int
	keys  []string
	grid  map[string]*gridmix.Series
	wx    map[string]*weather.Series
}

// NewSynthetic generates the per-region series covering [start,
// start+hours) deterministically from seed. Region order matters: region
// i's generator seeds derive from i (see the seed strides above).
func NewSynthetic(regions []SyntheticRegion, start time.Time, hours int, seed int64) (*Synthetic, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("feed: synthetic provider needs at least one region")
	}
	if hours <= 0 {
		return nil, fmt.Errorf("feed: synthetic provider needs a positive horizon, got %d hours", hours)
	}
	s := &Synthetic{
		start: start,
		hours: hours,
		keys:  make([]string, 0, len(regions)),
		grid:  make(map[string]*gridmix.Series, len(regions)),
		wx:    make(map[string]*weather.Series, len(regions)),
	}
	for i, r := range regions {
		if r.Key == "" {
			return nil, fmt.Errorf("feed: synthetic region %d has an empty key", i)
		}
		if _, dup := s.grid[r.Key]; dup {
			return nil, fmt.Errorf("feed: duplicate synthetic region %q", r.Key)
		}
		gs, err := gridmix.Generate(r.Grid, start, hours, seed+int64(i)*gridSeedStride)
		if err != nil {
			return nil, fmt.Errorf("region %q: %w", r.Key, err)
		}
		s.keys = append(s.keys, r.Key)
		s.grid[r.Key] = gs
		s.wx[r.Key] = weather.Generate(r.Climate, start, hours, seed+int64(i)*wxSeedStride+1)
	}
	return s, nil
}

// Name implements Provider.
func (*Synthetic) Name() string { return "synthetic" }

// Regions implements Provider.
func (s *Synthetic) Regions() []string { return append([]string(nil), s.keys...) }

// At implements Provider: the generated hourly series, held within each
// hour and clamped at the span edges. A reading inside the span is held
// for its hour, the bucket gridmix.Series.MixAt and weather.Series.At
// index; a clamped reading promises no window.
func (s *Synthetic) At(key string, t time.Time) (Sample, error) {
	gs, ok := s.grid[key]
	if !ok {
		return Sample{}, fmt.Errorf("feed: synthetic provider has no region %q", key)
	}
	smp := Sample{
		Time:    t,
		Mix:     gs.MixAt(t),
		WetBulb: s.wx[key].At(t),
		WSF:     UnsetWSF,
	}
	if h := int(t.Sub(s.start) / time.Hour); !t.Before(s.start) && h < s.hours {
		smp.HeldFrom = s.start.Add(time.Duration(h) * time.Hour)
		smp.HeldUntil = smp.HeldFrom.Add(time.Hour)
	}
	return smp, nil
}

// ForecastHorizon implements Provider: the synthetic series is fully
// deterministic, so nothing it serves is a prediction.
func (*Synthetic) ForecastHorizon() time.Duration { return 0 }
