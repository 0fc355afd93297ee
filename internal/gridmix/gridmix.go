// Package gridmix synthesizes hourly energy-mix series for regional power
// grids, standing in for the Electricity Maps live energy-mix breakdown the
// WaterWise paper consumes. Each region's grid is described by an annual
// average mix plus structural dynamics:
//
//   - solar follows a daylight curve (zero at night, peaking midday),
//   - wind follows a temporally correlated AR(1) process,
//   - dispatchable sources (gas, hydro, coal, ...) absorb the residual so
//     shares always sum to one.
//
// The resulting series exhibits the paper's key phenomenon (Fig. 2(e)):
// carbon intensity and water intensity vary over time and are often
// anti-correlated, because the water-thirsty low-carbon sources (hydro,
// biomass) ramp exactly when the low-water fossil sources ramp down.
package gridmix

import (
	"fmt"
	"math"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/stats"
	"waterwise/internal/units"
)

// Params describes one grid's generation structure.
type Params struct {
	// Base is the annual-average mix. It must be normalized (sum to 1); the
	// generator preserves each source's long-run average share.
	Base energy.Mix
	// Dispatchable lists the sources that ramp to absorb the residual when
	// variable renewables fluctuate; the residual is split among them in
	// proportion to their base shares. Sources not listed and not
	// solar/wind hold their base share (plus noise).
	Dispatchable []energy.Source
	// WindVariability is the relative standard deviation of the wind share
	// (0 disables wind fluctuation).
	WindVariability float64
	// WindPersistence is the AR(1) coefficient of the wind process in
	// [0, 1); higher values give longer wind "weather fronts".
	WindPersistence float64
	// ShareNoise is the relative noise applied to non-variable sources.
	ShareNoise float64
}

// Validate reports structural problems with the parameters.
func (p Params) Validate() error {
	if p.Base.Total() == 0 {
		return fmt.Errorf("gridmix: empty base mix")
	}
	if t := p.Base.Total(); math.Abs(t-1) > 1e-6 {
		return fmt.Errorf("gridmix: base mix sums to %.4f, want 1", t)
	}
	dispTotal := 0.0
	for _, s := range p.Dispatchable {
		dispTotal += p.Base[s]
	}
	if dispTotal <= 0 {
		return fmt.Errorf("gridmix: dispatchable sources have zero base share")
	}
	if p.WindPersistence < 0 || p.WindPersistence >= 1 {
		return fmt.Errorf("gridmix: wind persistence %.2f outside [0,1)", p.WindPersistence)
	}
	return nil
}

// Series is an hourly sequence of normalized mixes starting at Start.
type Series struct {
	Start time.Time
	Mixes []energy.Mix
}

// Generate produces an hourly mix series. Identical inputs always produce
// the identical series.
func Generate(p Params, start time.Time, hours int, seed int64) (*Series, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed)
	s := &Series{Start: start, Mixes: make([]energy.Mix, hours)}

	disp := make(map[energy.Source]bool, len(p.Dispatchable))
	dispBase := 0.0
	for _, src := range p.Dispatchable {
		disp[src] = true
		dispBase += p.Base[src]
	}

	windState := 0.0 // AR(1) innovation state, in units of relative deviation
	for h := 0; h < hours; h++ {
		t := start.Add(time.Duration(h) * time.Hour)
		var mix energy.Mix

		// Variable renewables.
		solarBase := p.Base[energy.Solar]
		if solarBase > 0 {
			// Daylight curve with daily mean 1 (the pi factor compensates
			// for the half-sine's 1/pi average), so the long-run solar
			// share matches the base mix.
			mix[energy.Solar] = solarBase * math.Pi * daylight(t) * (1 + rng.Normal(0, p.ShareNoise/2))
			if mix[energy.Solar] < 0 {
				mix[energy.Solar] = 0
			}
		}
		windBase := p.Base[energy.Wind]
		if windBase > 0 {
			sigma := p.WindVariability * math.Sqrt(1-p.WindPersistence*p.WindPersistence)
			windState = p.WindPersistence*windState + rng.Normal(0, sigma)
			mix[energy.Wind] = windBase * (1 + windState)
			if mix[energy.Wind] < 0 {
				mix[energy.Wind] = 0
			}
		}

		// Steady sources, iterated in fixed source order so random draws —
		// and therefore the whole series — are deterministic per seed.
		fixed := 0.0
		for _, src := range energy.AllSources() {
			share := p.Base[src]
			if share == 0 || src == energy.Solar || src == energy.Wind || disp[src] {
				continue
			}
			v := share * (1 + rng.Normal(0, p.ShareNoise))
			if v < 0 {
				v = 0
			}
			mix[src] = v
			fixed += v
		}

		// Dispatchable backfill.
		residual := 1 - fixed - mix[energy.Solar] - mix[energy.Wind]
		if residual < 0.02 {
			residual = 0.02 // grids always keep some spinning reserve online
		}
		for _, src := range p.Dispatchable {
			mix[src] = residual * p.Base[src] / dispBase
		}

		s.Mixes[h] = mix.Normalize()
	}
	return s, nil
}

// daylight returns the solar availability factor in [0,1]: a half-sine over
// 06:00-18:00 local time, zero at night.
func daylight(t time.Time) float64 {
	hod := float64(t.Hour()) + float64(t.Minute())/60.0
	if hod < 6 || hod > 18 {
		return 0
	}
	return math.Sin(math.Pi * (hod - 6) / 12)
}

// index returns the hour index of t, clamped to the series.
func (s *Series) index(t time.Time) int {
	if len(s.Mixes) == 0 {
		return -1
	}
	h := int(t.Sub(s.Start) / time.Hour)
	if h < 0 {
		h = 0
	}
	if h >= len(s.Mixes) {
		h = len(s.Mixes) - 1
	}
	return h
}

// MixAt returns the normalized mix at time t (clamped to the series range).
func (s *Series) MixAt(t time.Time) energy.Mix {
	i := s.index(t)
	if i < 0 {
		return energy.Mix{}
	}
	return s.Mixes[i]
}

// MeanCarbonIntensity averages the carbon intensity over the whole series.
func (s *Series) MeanCarbonIntensity(tbl energy.FactorTable) units.CarbonIntensity {
	if len(s.Mixes) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range s.Mixes {
		sum += float64(m.CarbonIntensity(tbl))
	}
	return units.CarbonIntensity(sum / float64(len(s.Mixes)))
}

// MeanEWIF averages the EWIF over the whole series.
func (s *Series) MeanEWIF(tbl energy.FactorTable) units.EWIF {
	if len(s.Mixes) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range s.Mixes {
		sum += float64(m.EWIF(tbl))
	}
	return units.EWIF(sum / float64(len(s.Mixes)))
}
