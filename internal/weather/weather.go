// Package weather synthesizes wet-bulb temperature series for data center
// regions and converts them to Water Usage Effectiveness (WUE), replacing
// the Meteologix live feed used by the WaterWise paper.
//
// WUE quantifies the liters of cooling water evaporated per kWh of IT
// energy, and depends strongly on the site's wet-bulb temperature: hotter,
// more humid air gives the cooling towers less evaporative headroom. We use
// the widely-cited cubic fit from Li et al., "Making AI Less Thirsty" [32]
// (originally in degrees Fahrenheit):
//
//	WUE(T_F) = 6e-5*T_F^3 - 0.01*T_F^2 + 0.61*T_F - 10.40   [L/kWh]
//
// clamped below at a small positive floor (even favorable weather consumes
// some make-up water for blowdown).
package weather

import (
	"math"
	"time"

	"waterwise/internal/stats"
	"waterwise/internal/units"
)

// minWUE is the floor applied to the cubic model: cooling towers always
// consume some blowdown make-up water.
const minWUE = 0.2

// WUEFromWetBulb converts a wet-bulb temperature to Water Usage
// Effectiveness using the cubic model above.
func WUEFromWetBulb(t units.Celsius) units.WUE {
	f := float64(t)*9/5 + 32
	w := 6e-5*f*f*f - 0.01*f*f + 0.61*f - 10.40
	if w < minWUE {
		w = minWUE
	}
	return units.WUE(w)
}

// Params describes a region's wet-bulb climate as a seasonal plus diurnal
// sinusoid with Gaussian noise:
//
//	T(t) = AnnualMean
//	     + SeasonalAmp * sin(2π*(dayOfYear/365) + SeasonalPhase)
//	     + DiurnalAmp  * sin(2π*(hourOfDay/24)  - π/2)      // coolest pre-dawn
//	     + N(0, Noise²)
type Params struct {
	// AnnualMean is the mean wet-bulb temperature (°C).
	AnnualMean float64
	// SeasonalAmp is the amplitude of the annual cycle (°C).
	SeasonalAmp float64
	// SeasonalPhase shifts the annual cycle; 0 peaks in early July
	// (northern hemisphere summer).
	SeasonalPhase float64
	// DiurnalAmp is the amplitude of the day/night cycle (°C).
	DiurnalAmp float64
	// Noise is the standard deviation of hour-to-hour weather noise (°C).
	Noise float64
}

// Series is an hourly wet-bulb temperature trace starting at Start.
type Series struct {
	Start   time.Time
	WetBulb []units.Celsius
}

// Generate produces an hourly wet-bulb series of the given length. The same
// params, start, length, and seed always produce the identical series.
func Generate(p Params, start time.Time, hours int, seed int64) *Series {
	rng := stats.NewRand(seed)
	s := &Series{Start: start, WetBulb: make([]units.Celsius, hours)}
	for h := 0; h < hours; h++ {
		t := start.Add(time.Duration(h) * time.Hour)
		s.WetBulb[h] = units.Celsius(p.at(t) + rng.Normal(0, p.Noise))
	}
	return s
}

// at returns the deterministic (noise-free) wet-bulb temperature at t.
func (p Params) at(t time.Time) float64 {
	doy := float64(t.YearDay()-1) / 365.0
	hod := float64(t.Hour()) + float64(t.Minute())/60.0
	seasonal := p.SeasonalAmp * math.Sin(2*math.Pi*doy+p.SeasonalPhase-math.Pi/2)
	diurnal := p.DiurnalAmp * math.Sin(2*math.Pi*hod/24-math.Pi/2)
	return p.AnnualMean + seasonal + diurnal
}

// At returns the wet-bulb temperature at time t, indexing into the hourly
// series (clamped to the series range).
func (s *Series) At(t time.Time) units.Celsius {
	if len(s.WetBulb) == 0 {
		return 0
	}
	h := int(t.Sub(s.Start) / time.Hour)
	if h < 0 {
		h = 0
	}
	if h >= len(s.WetBulb) {
		h = len(s.WetBulb) - 1
	}
	return s.WetBulb[h]
}
