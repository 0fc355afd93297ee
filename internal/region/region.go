// Package region defines the geographically distributed data center regions
// WaterWise schedules across, and the Environment that binds each region to
// its grid-mix and weather signals through a pluggable feed.Provider —
// synthetic generation by default (NewEnvironment), or a recorded/live feed
// via NewEnvironmentWithProvider.
//
// The five default regions mirror the paper's AWS deployment — Zurich
// (eu-central-2), Madrid (eu-south-2), Oregon (us-west-2), Milan
// (eu-south-1), Mumbai (ap-south-1) — with grid mixes, climates, and water
// scarcity factors calibrated so the regional averages reproduce the
// orderings of Fig. 2: carbon intensity ascending Zurich < Madrid < Oregon <
// Milan < Mumbai, Zurich's grid the most water-intensive (hydro+biomass
// heavy), Mumbai's the least (coal heavy), Mumbai's climate the thirstiest
// for cooling, and Madrid/Mumbai the most water-scarce.
package region

import (
	"fmt"
	"sync/atomic"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/gridmix"
	"waterwise/internal/units"
	"waterwise/internal/weather"
)

// ID identifies a region, e.g. "zurich".
type ID string

// The five regions of the paper's evaluation.
const (
	Zurich ID = "zurich"
	Madrid ID = "madrid"
	Oregon ID = "oregon"
	Milan  ID = "milan"
	Mumbai ID = "mumbai"
)

// Region is a data center region's static description.
type Region struct {
	// ID is the region's unique identifier.
	ID ID
	// Name is the human-readable location.
	Name string
	// AWSZone is the corresponding AWS region of the paper's testbed.
	AWSZone string
	// WSF is the water scarcity factor: freshwater demand relative to
	// availability; higher means a liter of water is more precious here.
	WSF float64
	// PUE is the power usage effectiveness of the region's data center.
	PUE float64
	// Servers is the number of servers available in this region.
	Servers int
	// EnergyPriceUSD is the industrial electricity price (USD/kWh), used
	// only by the optional cost-objective extension (paper §7).
	EnergyPriceUSD float64
	// Grid describes the regional electricity mix dynamics.
	Grid gridmix.Params
	// Climate describes the regional wet-bulb temperature dynamics.
	Climate weather.Params
}

// DefaultServersPerRegion matches the paper's 175-node/5-region testbed.
const DefaultServersPerRegion = 35

// DefaultPUE is the power usage effectiveness used throughout the paper.
const DefaultPUE = 1.2

// Defaults returns fresh copies of the five paper regions.
func Defaults() []*Region {
	return []*Region{
		{
			ID: Zurich, Name: "Zurich, Switzerland", AWSZone: "eu-central-2",
			WSF: 0.03, PUE: DefaultPUE, Servers: DefaultServersPerRegion, EnergyPriceUSD: 0.16,
			Grid: gridmix.Params{
				Base: energy.Mix{
					energy.Hydro: 0.22, energy.Nuclear: 0.45, energy.Solar: 0.08,
					energy.Wind: 0.06, energy.Biomass: 0.05, energy.Gas: 0.14,
				},
				Dispatchable:    []energy.Source{energy.Hydro, energy.Gas},
				WindVariability: 0.45, WindPersistence: 0.85, ShareNoise: 0.05,
			},
			Climate: weather.Params{AnnualMean: 7.5, SeasonalAmp: 7.0, DiurnalAmp: 2.5, Noise: 1.2},
		},
		{
			ID: Madrid, Name: "Madrid, Spain", AWSZone: "eu-south-2",
			WSF: 0.90, PUE: DefaultPUE, Servers: DefaultServersPerRegion, EnergyPriceUSD: 0.12,
			Grid: gridmix.Params{
				Base: energy.Mix{
					energy.Solar: 0.25, energy.Wind: 0.20, energy.Nuclear: 0.20,
					energy.Hydro: 0.08, energy.Gas: 0.22, energy.Coal: 0.05,
				},
				Dispatchable:    []energy.Source{energy.Gas, energy.Hydro, energy.Coal},
				WindVariability: 0.50, WindPersistence: 0.88, ShareNoise: 0.05,
			},
			Climate: weather.Params{AnnualMean: 16.0, SeasonalAmp: 9.0, DiurnalAmp: 3.5, Noise: 1.0},
		},
		{
			ID: Oregon, Name: "Oregon, USA", AWSZone: "us-west-2",
			WSF: 0.52, PUE: DefaultPUE, Servers: DefaultServersPerRegion, EnergyPriceUSD: 0.07,
			Grid: gridmix.Params{
				Base: energy.Mix{
					energy.Hydro: 0.12, energy.Wind: 0.18, energy.Gas: 0.45,
					energy.Solar: 0.07, energy.Nuclear: 0.08, energy.Coal: 0.10,
				},
				Dispatchable:    []energy.Source{energy.Gas, energy.Hydro, energy.Coal},
				WindVariability: 0.55, WindPersistence: 0.90, ShareNoise: 0.05,
			},
			Climate: weather.Params{AnnualMean: 8.5, SeasonalAmp: 6.5, DiurnalAmp: 3.0, Noise: 1.1},
		},
		{
			ID: Milan, Name: "Milan, Italy", AWSZone: "eu-south-1",
			WSF: 0.31, PUE: DefaultPUE, Servers: DefaultServersPerRegion, EnergyPriceUSD: 0.19,
			Grid: gridmix.Params{
				Base: energy.Mix{
					energy.Gas: 0.58, energy.Hydro: 0.08, energy.Solar: 0.10,
					energy.Wind: 0.05, energy.Oil: 0.05, energy.Coal: 0.09,
					energy.Nuclear: 0.05,
				},
				Dispatchable:    []energy.Source{energy.Gas, energy.Hydro},
				WindVariability: 0.40, WindPersistence: 0.85, ShareNoise: 0.05,
			},
			Climate: weather.Params{AnnualMean: 12.5, SeasonalAmp: 8.5, DiurnalAmp: 3.0, Noise: 1.1},
		},
		{
			ID: Mumbai, Name: "Mumbai, India", AWSZone: "ap-south-1",
			WSF: 0.80, PUE: DefaultPUE, Servers: DefaultServersPerRegion, EnergyPriceUSD: 0.09,
			Grid: gridmix.Params{
				Base: energy.Mix{
					energy.Coal: 0.60, energy.Gas: 0.15, energy.Oil: 0.05,
					energy.Solar: 0.11, energy.Wind: 0.07, energy.Hydro: 0.02,
				},
				Dispatchable:    []energy.Source{energy.Coal, energy.Gas},
				WindVariability: 0.40, WindPersistence: 0.85, ShareNoise: 0.05,
			},
			Climate: weather.Params{AnnualMean: 25.0, SeasonalAmp: 3.0, DiurnalAmp: 2.0, Noise: 0.8},
		},
	}
}

// DefaultsSubset returns fresh copies of the named regions, in the given
// order, erroring on unknown IDs. Used by the Fig. 12 region-availability
// study.
func DefaultsSubset(ids ...ID) ([]*Region, error) {
	byID := make(map[ID]*Region)
	for _, r := range Defaults() {
		byID[r.ID] = r
	}
	out := make([]*Region, 0, len(ids))
	for _, id := range ids {
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("region: unknown region %q", id)
		}
		out = append(out, r)
	}
	return out, nil
}

// Snapshot captures every sustainability factor of one region at one
// instant; it is what the scheduler (and footprint model) read.
type Snapshot struct {
	Region ID
	Time   time.Time
	CI     units.CarbonIntensity
	EWIF   units.EWIF
	WUE    units.WUE
	WSF    float64
	PUE    float64
}

// WaterIntensity computes the paper's Eq. 6:
//
//	H2O_intensity = (WUE + PUE*EWIF) * (1 + WSF)   [L/kWh]
func (s Snapshot) WaterIntensity() units.WaterIntensity {
	return units.WaterIntensity((float64(s.WUE) + s.PUE*float64(s.EWIF)) * (1 + s.WSF))
}

// Environment binds regions to their grid-mix and weather signals under one
// factor table. All schedulers and the footprint accounting read region
// conditions through an Environment; the Environment reads them through a
// feed.Provider — the synthetic generators by default, or a replayed/live
// feed. Reads are safe for concurrent use (the deterministic providers are
// immutable; Live serves from a locked cache).
//
// Snapshot derives each region's reading once per interval the provider
// says it holds (feed.Sample.HeldFrom/HeldUntil) and serves the stored
// snapshot for the rest of it. The memo is keyed on nothing but the
// instant, so Table and every Regions entry are read-only once the
// Environment is built: a snapshot derived before a write would be served
// after it.
type Environment struct {
	// Regions are the static region descriptions, in registry order.
	// Read-only after construction.
	Regions []*Region
	// Table maps energy sources to carbon/water factors. Read-only after
	// construction.
	Table energy.FactorTable
	// Start is the beginning of the covered horizon.
	Start time.Time
	// Hours is the horizon length.
	Hours int

	byID map[ID]*entry
	prov feed.Provider
}

// entry is one region of an Environment with its memoized snapshot.
// Partition views share their parent's entries, so every view reads and
// fills one memo per region.
type entry struct {
	*Region
	held atomic.Pointer[heldSnapshot]
}

// heldSnapshot is a snapshot together with the window the provider
// promised its reading holds for.
type heldSnapshot struct {
	from, until time.Time
	snap        Snapshot
}

// NewEnvironment builds a synthetic-feed environment: the per-region
// grid-mix and weather series covering [start, start+hours), generated
// deterministically from seed — identical inputs always produce identical
// snapshots, and the values are bit-for-bit the series this constructor
// produced before the provider abstraction existed (the feed package's
// seed strides pin this).
func NewEnvironment(regions []*Region, tbl energy.FactorTable, start time.Time, hours int, seed int64) (*Environment, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("region: environment needs at least one region")
	}
	specs := make([]feed.SyntheticRegion, len(regions))
	for i, r := range regions {
		specs[i] = feed.SyntheticRegion{Key: string(r.ID), Grid: r.Grid, Climate: r.Climate}
	}
	prov, err := feed.NewSynthetic(specs, start, hours, seed)
	if err != nil {
		return nil, fmt.Errorf("region: %w", err)
	}
	return NewEnvironmentWithProvider(regions, tbl, start, hours, prov)
}

// NewEnvironmentWithProvider builds an environment over an existing feed
// provider — a feed.Replay serving a recorded trace, a feed.Live polling
// an external API, or a feed.Synthetic built elsewhere. The provider must
// answer for every region's key; it may answer for more (a replay of a
// five-region recording backs a two-region environment). Determinism is
// the provider's: Synthetic and Replay environments replay
// decision-for-decision, a Live environment tracks an external world.
func NewEnvironmentWithProvider(regions []*Region, tbl energy.FactorTable, start time.Time, hours int, prov feed.Provider) (*Environment, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("region: environment needs at least one region")
	}
	if hours <= 0 {
		return nil, fmt.Errorf("region: environment needs a positive horizon, got %d hours", hours)
	}
	if prov == nil {
		return nil, fmt.Errorf("region: nil feed provider")
	}
	served := make(map[string]bool)
	for _, key := range prov.Regions() {
		served[key] = true
	}
	env := &Environment{
		Regions: regions,
		Table:   tbl,
		Start:   start,
		Hours:   hours,
		byID:    make(map[ID]*entry, len(regions)),
		prov:    prov,
	}
	for _, r := range regions {
		if _, dup := env.byID[r.ID]; dup {
			return nil, fmt.Errorf("region: duplicate region %q", r.ID)
		}
		if !served[string(r.ID)] {
			return nil, fmt.Errorf("region: %s feed does not serve region %q", prov.Name(), r.ID)
		}
		env.byID[r.ID] = &entry{Region: r}
	}
	return env, nil
}

// Provider exposes the feed behind this environment — the serving layer
// reads its health for /v1/status and /metrics, and waterwised -record
// samples it into a replay trace.
func (e *Environment) Provider() feed.Provider { return e.prov }

// Region returns the static region description for id, or nil if unknown.
func (e *Environment) Region(id ID) *Region {
	if en := e.byID[id]; en != nil {
		return en.Region
	}
	return nil
}

// Partition returns a view of the environment restricted to the named
// regions, in the given order. The view shares the receiver's feed
// provider — partitioning never regenerates, reseeds, or re-fetches the
// signals, so a snapshot read through a view is bit-identical to one read
// through the full environment. That sharing is what makes region-sharded
// serving (internal/server) decision-identical to a single scheduler over
// the same world: every shard sees the same series one shard over every
// region would, just fewer regions of it (and N shards over one Live provider
// share one cache, not N upstream pollers). The view shares the receiver's
// per-region snapshot memo too.
func (e *Environment) Partition(ids ...ID) (*Environment, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("region: empty partition")
	}
	view := &Environment{
		Table: e.Table,
		Start: e.Start,
		Hours: e.Hours,
		byID:  make(map[ID]*entry, len(ids)),
		prov:  e.prov,
	}
	view.Regions = make([]*Region, 0, len(ids))
	for _, id := range ids {
		en, ok := e.byID[id]
		if !ok {
			return nil, fmt.Errorf("region: partition names unknown region %q", id)
		}
		if _, dup := view.byID[id]; dup {
			return nil, fmt.Errorf("region: partition names region %q twice", id)
		}
		view.Regions = append(view.Regions, en.Region)
		view.byID[id] = en
	}
	return view, nil
}

// IDs returns the region IDs in registry order.
func (e *Environment) IDs() []ID {
	out := make([]ID, len(e.Regions))
	for i, r := range e.Regions {
		out[i] = r.ID
	}
	return out
}

// Snapshot returns the full sustainability snapshot for region id at time
// t: the provider's sample turned into CI/EWIF under the factor table and
// WUE under the wet-bulb model, with the region's static WSF/PUE unless
// the sample overrides them. The boolean is false if the region is
// unknown (or, for a live feed that never primed the region, on a
// provider error — deterministic providers never fail on a known region).
//
// A snapshot is derived once per window the provider says its reading
// holds for: an instant inside the region's stored window is answered
// from it, and any other asks the provider, storing the result when t lies
// inside the window it came with. No lock is taken; concurrent misses each
// derive the same snapshot and the last store wins.
func (e *Environment) Snapshot(id ID, t time.Time) (Snapshot, bool) {
	en, ok := e.byID[id]
	if !ok {
		return Snapshot{}, false
	}
	if h := en.held.Load(); h != nil && !t.Before(h.from) && t.Before(h.until) {
		snap := h.snap
		snap.Time = t
		return snap, true
	}
	smp, err := e.prov.At(string(id), t)
	if err != nil {
		return Snapshot{}, false
	}
	pue := en.PUE
	if smp.PUE > 0 {
		pue = smp.PUE
	}
	wsf := en.WSF
	if smp.WSF >= 0 {
		wsf = smp.WSF
	}
	snap := Snapshot{
		Region: id,
		Time:   t,
		CI:     smp.Mix.CarbonIntensity(e.Table),
		EWIF:   smp.Mix.EWIF(e.Table),
		WUE:    weather.WUEFromWetBulb(smp.WetBulb),
		WSF:    wsf,
		PUE:    pue,
	}
	if !t.Before(smp.HeldFrom) && t.Before(smp.HeldUntil) {
		en.held.Store(&heldSnapshot{from: smp.HeldFrom, until: smp.HeldUntil, snap: snap})
	}
	return snap, true
}

// MixAt exposes the raw energy mix for region id at time t (used by the
// Ecovisor comparator, which reacts to the solar share). Unknown regions
// and provider errors yield the zero mix.
func (e *Environment) MixAt(id ID, t time.Time) energy.Mix {
	if e.byID[id] == nil {
		return energy.Mix{}
	}
	smp, err := e.prov.At(string(id), t)
	if err != nil {
		return energy.Mix{}
	}
	return smp.Mix
}

// End returns the first instant past the generated horizon.
func (e *Environment) End() time.Time {
	return e.Start.Add(time.Duration(e.Hours) * time.Hour)
}
