// Package units defines the typed physical quantities used throughout the
// WaterWise framework: energy, carbon mass, water volume, and the intensity
// factors that relate them (carbon intensity, energy-water intensity, water
// usage effectiveness).
//
// All quantities are float64 under the hood; the named types exist so that
// the compiler catches unit mix-ups such as adding liters to kilowatt-hours,
// and so that formatted output carries units automatically.
package units

import "fmt"

// KWh is an amount of electrical energy in kilowatt-hours.
type KWh float64

// GramsCO2 is a mass of CO2-equivalent emissions in grams.
type GramsCO2 float64

// Liters is a volume of water in liters.
type Liters float64

// CarbonIntensity is grams of CO2-equivalent emitted per kWh of electricity
// generated (gCO2/kWh). Lower is better.
type CarbonIntensity float64

// EWIF is the Energy Water Intensity Factor: liters of water consumed per
// kWh of electricity generated (L/kWh). Higher means the energy source is
// more water-thirsty. This drives the offsite water footprint.
type EWIF float64

// WUE is Water Usage Effectiveness: liters of water evaporated per kWh of
// IT energy to dissipate data-center heat (L/kWh). It depends on the wet
// bulb temperature at the data center's location. This drives the onsite
// water footprint.
type WUE float64

// WaterIntensity is the paper's Eq. 6 composite: (WUE + PUE*EWIF)*(1+WSF),
// in liters per kWh. Like carbon intensity, lower is better.
type WaterIntensity float64

// Celsius is a temperature in degrees Celsius (used for wet bulb readings).
type Celsius float64

// Carbon returns the operational carbon emitted when e kWh are drawn from a
// grid with carbon intensity ci.
func Carbon(e KWh, ci CarbonIntensity) GramsCO2 {
	return GramsCO2(float64(e) * float64(ci))
}

// OffsiteWater returns the water consumed generating e kWh at the given
// energy-water intensity factor.
func OffsiteWater(e KWh, f EWIF) Liters {
	return Liters(float64(e) * float64(f))
}

// OnsiteWater returns the cooling water evaporated dissipating the heat of
// e kWh of IT energy at the given water usage effectiveness.
func OnsiteWater(e KWh, w WUE) Liters {
	return Liters(float64(e) * float64(w))
}

// String implementations render quantities with sensible precision and units
// for logs and reports.

func (e KWh) String() string             { return fmt.Sprintf("%.3f kWh", float64(e)) }
func (g GramsCO2) String() string        { return fmt.Sprintf("%.1f gCO2", float64(g)) }
func (l Liters) String() string          { return fmt.Sprintf("%.2f L", float64(l)) }
func (c CarbonIntensity) String() string { return fmt.Sprintf("%.1f gCO2/kWh", float64(c)) }
func (f EWIF) String() string            { return fmt.Sprintf("%.2f L/kWh", float64(f)) }
func (w WUE) String() string             { return fmt.Sprintf("%.2f L/kWh", float64(w)) }
func (w WaterIntensity) String() string  { return fmt.Sprintf("%.2f L/kWh", float64(w)) }
func (c Celsius) String() string         { return fmt.Sprintf("%.1f °C", float64(c)) }

// Kg returns the carbon mass in kilograms.
func (g GramsCO2) Kg() float64 { return float64(g) / 1000 }
