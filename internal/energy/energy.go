// Package energy models electricity generation sources: their carbon
// intensity and their Energy Water Intensity Factor (EWIF), reproducing the
// characterization in Fig. 1 of the WaterWise paper. It also provides mix
// arithmetic: given the share of each source in a regional grid, it derives
// the grid's effective carbon intensity and EWIF.
//
// Two factor tables are provided. Table mirrors the Electricity Maps +
// Macknick et al. data the paper uses by default; WRITable is an alternative
// set with systematically different per-source water factors standing in for
// the World Resources Institute dataset used in the paper's Fig. 6
// robustness study.
package energy

import (
	"fmt"

	"waterwise/internal/units"
)

// Source is an electricity generation technology.
type Source int

// The nine sources characterized in Fig. 1, ordered as in the paper
// (renewables first, then fossil fuels).
const (
	Nuclear Source = iota
	Wind
	Hydro
	Geothermal
	Solar
	Biomass
	Gas
	Oil
	Coal
	numSources
)

// AllSources lists every source in Fig. 1 order.
func AllSources() []Source {
	out := make([]Source, numSources)
	for i := range out {
		out[i] = Source(i)
	}
	return out
}

func (s Source) String() string {
	switch s {
	case Nuclear:
		return "nuclear"
	case Wind:
		return "wind"
	case Hydro:
		return "hydro"
	case Geothermal:
		return "geothermal"
	case Solar:
		return "solar"
	case Biomass:
		return "biomass"
	case Gas:
		return "gas"
	case Oil:
		return "oil"
	case Coal:
		return "coal"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// IsFossil reports whether the source is a fossil fuel (gas, oil, coal).
func (s Source) IsFossil() bool { return s == Gas || s == Oil || s == Coal }

// Factors holds the sustainability factors of one energy source.
type Factors struct {
	// CI is the life-cycle carbon intensity of generation (gCO2/kWh).
	CI units.CarbonIntensity
	// EWIF is the water consumed per unit of electricity (L/kWh).
	EWIF units.EWIF
}

// FactorTable maps each source to its factors. Different tables represent
// different external datasets. It is a dense array indexed by Source: mix
// arithmetic runs in every candidate-scoring loop of the scheduler, and
// array indexing keeps it off the map-lookup hot path.
type FactorTable [numSources]Factors

// Table is the default factor table, following IPCC life-cycle carbon
// intensities [9] and Macknick et al. operational water consumption factors
// [35, 36], matching the paper's Fig. 1: coal's carbon intensity is ~62x
// hydro's, while hydro's EWIF is ~11x coal's.
var Table = FactorTable{
	Nuclear:    {CI: 12, EWIF: 2.3},
	Wind:       {CI: 11, EWIF: 0.2},
	Hydro:      {CI: 17, EWIF: 17.0},
	Geothermal: {CI: 38, EWIF: 1.5},
	Solar:      {CI: 45, EWIF: 1.0},
	Biomass:    {CI: 230, EWIF: 14.0},
	Gas:        {CI: 490, EWIF: 1.0},
	Oil:        {CI: 720, EWIF: 1.7},
	Coal:       {CI: 1050, EWIF: 1.55},
}

// WRITable stands in for the World Resources Institute water-accounting
// guidance [45]: carbon intensities are unchanged, but per-source water
// factors differ systematically (hydro reservoirs attributed less
// evaporation, thermal plants more cooling water), exercising the paper's
// Fig. 6 sensitivity to the choice of water dataset.
var WRITable = FactorTable{
	Nuclear:    {CI: 12, EWIF: 2.7},
	Wind:       {CI: 11, EWIF: 0.1},
	Hydro:      {CI: 17, EWIF: 11.5},
	Geothermal: {CI: 38, EWIF: 2.0},
	Solar:      {CI: 45, EWIF: 0.8},
	Biomass:    {CI: 230, EWIF: 16.5},
	Gas:        {CI: 490, EWIF: 1.3},
	Oil:        {CI: 720, EWIF: 2.1},
	Coal:       {CI: 1050, EWIF: 2.0},
}

// Mix is the share of each source in a grid's generation. Shares are
// non-negative and sum to 1 for a normalized mix. It is a dense array
// indexed by Source (absent sources simply have share 0), so per-snapshot
// CI/EWIF derivation is pure arithmetic with no map traffic.
type Mix [numSources]float64

// All mix arithmetic iterates sources in declaration order rather than map
// order: floating-point sums are order-dependent, and fixed order keeps
// every derived series bit-for-bit reproducible from its seed.

// Normalize returns a copy of the mix scaled so shares sum to 1. A mix with
// zero total yields an empty mix.
func (m Mix) Normalize() Mix {
	total := 0.0
	for s := Source(0); s < numSources; s++ {
		if v := m[s]; v > 0 {
			total += v
		}
	}
	var out Mix
	if total == 0 {
		return out
	}
	for s := Source(0); s < numSources; s++ {
		if v := m[s]; v > 0 {
			out[s] = v / total
		}
	}
	return out
}

// Total returns the sum of all shares.
func (m Mix) Total() float64 {
	t := 0.0
	for s := Source(0); s < numSources; s++ {
		t += m[s]
	}
	return t
}

// CarbonIntensity returns the mix's effective carbon intensity under the
// given factor table: the share-weighted average of source intensities.
func (m Mix) CarbonIntensity(tbl FactorTable) units.CarbonIntensity {
	ci := 0.0
	for s := Source(0); s < numSources; s++ {
		if share := m[s]; share != 0 {
			ci += share * float64(tbl[s].CI)
		}
	}
	return units.CarbonIntensity(ci)
}

// EWIF returns the mix's effective energy-water intensity factor under the
// given factor table: the share-weighted average of source EWIFs.
func (m Mix) EWIF(tbl FactorTable) units.EWIF {
	w := 0.0
	for s := Source(0); s < numSources; s++ {
		if share := m[s]; share != 0 {
			w += share * float64(tbl[s].EWIF)
		}
	}
	return units.EWIF(w)
}

// Clone returns a copy of the mix (a value copy, since Mix is an array).
func (m Mix) Clone() Mix { return m }

// String renders the nonzero shares in source order for stable output.
func (m Mix) String() string {
	out := "{"
	first := true
	for s := Source(0); s < numSources; s++ {
		if m[s] == 0 {
			continue
		}
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%s:%.2f", s, m[s])
	}
	return out + "}"
}
