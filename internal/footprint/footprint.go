// Package footprint implements the WaterWise paper's carbon- and
// water-footprint model (Section 2, Eq. 1–6).
//
// Carbon (Eq. 1):
//
//	CO2_j = E_j * CI  +  (t_j / T_lifetime) * CO2_embodied_server
//
// Water (Eq. 2–5):
//
//	offsite_j  = PUE * E_j * EWIF * (1 + WSF_dc)
//	onsite_j   = E_j * WUE * (1 + WSF_dc)
//	embodied_j = (t_j / T_lifetime) * H2O_embodied_server
//	H2O_j      = offsite_j + onsite_j + embodied_j
//
// Water intensity (Eq. 6), used for normalization and reporting:
//
//	WI = (WUE + PUE*EWIF) * (1 + WSF_dc)
//
// The embodied-water constant follows the paper's Eq. 4 methodology: take
// the server's total embodied carbon, divide by the manufacturing region's
// carbon intensity to estimate manufacturing energy, then multiply by the
// manufacturing region's EWIF and scarcity uplift.
package footprint

import (
	"time"

	"waterwise/internal/region"
	"waterwise/internal/units"
)

// Server lifetime and embodied constants for the AWS m5.metal-class machine
// the paper profiles (embodied carbon from the Teads EC2 dataset [13]).
const (
	// ServerLifetime is the amortization horizon for embodied footprints.
	ServerLifetime = 4 * 365 * 24 * time.Hour
	// ServerEmbodiedCarbon is the total manufacturing carbon of one server.
	ServerEmbodiedCarbon units.GramsCO2 = 1_216_000 // 1216 kgCO2e
	// ManufacturingCI approximates the grid carbon intensity at the
	// server's manufacturing location (East Asia grid average, gCO2/kWh).
	ManufacturingCI units.CarbonIntensity = 550
	// ManufacturingEWIF approximates the water intensity of the
	// manufacturing region's electricity (L/kWh).
	ManufacturingEWIF units.EWIF = 1.9
	// ManufacturingWSF is the water scarcity factor of the manufacturing
	// region.
	ManufacturingWSF = 0.45
)

// ServerEmbodiedWater derives the server's total embodied water via Eq. 4:
// manufacturing energy (embodied carbon / manufacturing CI) times the
// manufacturing region's EWIF, scaled by (1 + WSF_manufacturing).
func ServerEmbodiedWater() units.Liters {
	energyKWh := float64(ServerEmbodiedCarbon) / float64(ManufacturingCI)
	return units.Liters(energyKWh * float64(ManufacturingEWIF) * (1 + ManufacturingWSF))
}

// Perturbation injects systematic estimation error into the model, for the
// paper's ±10% sensitivity studies on embodied carbon and water intensity.
// Factors of 1.0 (the zero value is NOT usable; use NoPerturbation) leave
// the model exact.
type Perturbation struct {
	// EmbodiedCarbonFactor scales the server embodied carbon estimate.
	EmbodiedCarbonFactor float64
	// WaterIntensityFactor scales both EWIF and WUE (and therefore the
	// whole operational water footprint).
	WaterIntensityFactor float64
}

// NoPerturbation is the exact model.
var NoPerturbation = Perturbation{EmbodiedCarbonFactor: 1, WaterIntensityFactor: 1}

// Model computes job footprints from region snapshots.
type Model struct {
	perturb       Perturbation
	embodiedWater units.Liters
}

// NewModel returns a footprint model with the given perturbation.
func NewModel(p Perturbation) *Model {
	if p.EmbodiedCarbonFactor == 0 {
		p.EmbodiedCarbonFactor = 1
	}
	if p.WaterIntensityFactor == 0 {
		p.WaterIntensityFactor = 1
	}
	return &Model{perturb: p, embodiedWater: ServerEmbodiedWater()}
}

// Footprint is the complete sustainability cost of one job execution.
type Footprint struct {
	// OperationalCarbon is E_j * CI (Eq. 1, first term).
	OperationalCarbon units.GramsCO2
	// EmbodiedCarbon is the amortized manufacturing carbon (Eq. 1, second
	// term).
	EmbodiedCarbon units.GramsCO2
	// OffsiteWater is the generation-side water (Eq. 2).
	OffsiteWater units.Liters
	// OnsiteWater is the cooling water (Eq. 3).
	OnsiteWater units.Liters
	// EmbodiedWater is the amortized manufacturing water (Eq. 4).
	EmbodiedWater units.Liters
}

// Carbon returns the total carbon footprint (Eq. 1).
func (f Footprint) Carbon() units.GramsCO2 {
	return f.OperationalCarbon + f.EmbodiedCarbon
}

// Water returns the total water footprint (Eq. 5).
func (f Footprint) Water() units.Liters {
	return f.OffsiteWater + f.OnsiteWater + f.EmbodiedWater
}

// Add accumulates another footprint into this one.
func (f Footprint) Add(g Footprint) Footprint {
	return Footprint{
		OperationalCarbon: f.OperationalCarbon + g.OperationalCarbon,
		EmbodiedCarbon:    f.EmbodiedCarbon + g.EmbodiedCarbon,
		OffsiteWater:      f.OffsiteWater + g.OffsiteWater,
		OnsiteWater:       f.OnsiteWater + g.OnsiteWater,
		EmbodiedWater:     f.EmbodiedWater + g.EmbodiedWater,
	}
}

// ForJob evaluates Eq. 1–5 for a job that consumes energy (IT-side kWh) and
// runs for duration, under the sustainability conditions captured by the
// snapshot. The snapshot's CI/EWIF/WUE should be sampled at the job's
// execution time in the execution region.
func (m *Model) ForJob(s region.Snapshot, energy units.KWh, duration time.Duration) Footprint {
	e := float64(energy)
	lifeFrac := float64(duration) / float64(ServerLifetime)
	wf := m.perturb.WaterIntensityFactor
	scarcity := 1 + s.WSF
	return Footprint{
		OperationalCarbon: units.GramsCO2(e * float64(s.CI)),
		EmbodiedCarbon:    units.GramsCO2(lifeFrac * float64(ServerEmbodiedCarbon) * m.perturb.EmbodiedCarbonFactor),
		OffsiteWater:      units.Liters(s.PUE * e * float64(s.EWIF) * wf * scarcity),
		OnsiteWater:       units.Liters(e * float64(s.WUE) * wf * scarcity),
		EmbodiedWater:     units.Liters(lifeFrac * float64(m.embodiedWater)),
	}
}

// WaterIntensity evaluates Eq. 6 with the model's perturbation applied.
func (m *Model) WaterIntensity(s region.Snapshot) units.WaterIntensity {
	return units.WaterIntensity((float64(s.WUE) + s.PUE*float64(s.EWIF)) *
		m.perturb.WaterIntensityFactor * (1 + s.WSF))
}
