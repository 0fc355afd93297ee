package feed

import (
	"fmt"
	"sort"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/units"
)

// Replay serves samples from a recorded trace. With the default hold
// interpolation a replayed recording of a Synthetic provider answers At
// bit-identically to the original over the recorded span, which is what
// makes record→replay runs decision-for-decision equal to synthetic runs
// (the round-trip tests and the fleet replay-smoke CI job pin this down).
// The trace is validated at construction and immutable afterwards, so
// Replay is deterministic and safe for concurrent use.
type Replay struct {
	interp string
	keys   []string
	series map[string][]Sample // time-ascending, from the validated trace
}

// NewReplay validates the trace and builds the provider over it.
func NewReplay(tr Trace) (*Replay, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	interp := tr.Interp
	if interp == "" {
		interp = InterpHold
	}
	r := &Replay{
		interp: interp,
		keys:   make([]string, 0, len(tr.Regions)),
		series: make(map[string][]Sample, len(tr.Regions)),
	}
	for _, rt := range tr.Regions {
		samples := make([]Sample, len(rt.Samples))
		for i, ts := range rt.Samples {
			samples[i] = toSample(ts)
		}
		r.keys = append(r.keys, rt.Key)
		r.series[rt.Key] = samples
	}
	return r, nil
}

// Name implements Provider.
func (*Replay) Name() string { return "replay" }

// Regions implements Provider.
func (r *Replay) Regions() []string { return append([]string(nil), r.keys...) }

// Interp reports the interpolation mode the trace selected (InterpHold or
// InterpLinear).
func (r *Replay) Interp() string { return r.interp }

// At implements Provider. Instants before the first sample clamp to it
// and instants after the last clamp to the last; between samples the
// trace's interpolation mode applies — hold serves the newest sample at
// or before t, linear blends the neighbors. The returned Sample.Time
// echoes t, matching Synthetic. A held reading carries its window, from
// its own sample to the next; a blended or clamped one promises none.
func (r *Replay) At(key string, t time.Time) (Sample, error) {
	samples, ok := r.series[key]
	if !ok {
		return Sample{}, fmt.Errorf("feed: replay trace has no region %q", key)
	}
	// i is the index of the first sample strictly after t, so the sample
	// "in effect" at t is i-1.
	i := sort.Search(len(samples), func(i int) bool { return samples[i].Time.After(t) })
	var s Sample
	switch {
	case i == 0:
		s = samples[0] // before the recorded span: clamp
	case i == len(samples):
		s = samples[len(samples)-1] // past the recorded span: clamp
	case r.interp == InterpLinear:
		s = lerpSamples(samples[i-1], samples[i], t)
	default:
		s = samples[i-1] // hold
		s.HeldFrom, s.HeldUntil = samples[i-1].Time, samples[i].Time
	}
	s.Time = t
	return s, nil
}

// lerpSamples blends two readings linearly at t in (a.Time, b.Time). Mix
// shares blend componentwise — a convex combination of normalized mixes
// is normalized — and the wet-bulb scalar blends; the PUE/WSF overrides
// hold from a (an override is a step-change operational fact, not a
// continuous signal).
func lerpSamples(a, b Sample, t time.Time) Sample {
	f := float64(t.Sub(a.Time)) / float64(b.Time.Sub(a.Time))
	out := Sample{PUE: a.PUE, WSF: a.WSF}
	for _, src := range energy.AllSources() {
		out.Mix[src] = (1-f)*a.Mix[src] + f*b.Mix[src]
	}
	out.WetBulb = units.Celsius((1-f)*float64(a.WetBulb) + f*float64(b.WetBulb))
	return out
}

// ForecastHorizon implements Provider: a replay trace is fully known in
// advance, so nothing it serves is a prediction.
func (*Replay) ForecastHorizon() time.Duration { return 0 }
