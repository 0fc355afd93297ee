// Package workload provides the benchmark profiles of Table 1 in the
// WaterWise paper: five PARSEC-3.0 benchmarks and five CloudSuite
// benchmarks, each with a mean execution time, mean power draw, and
// deployment package size.
//
// The paper profiles these workloads on AWS m5.metal machines with
// Likwid/RAPL; offline we substitute a static profile database with the
// same role: the scheduler's controller reads *mean estimates* gathered
// "from previous executions", while the simulator draws noisy *actuals*
// around those means — reproducing the paper's caveat that the controller's
// estimates can be inaccurate.
package workload

import (
	"fmt"
	"sort"
	"time"

	"waterwise/internal/stats"
	"waterwise/internal/units"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite string

// The two suites of Table 1.
const (
	PARSEC     Suite = "parsec"
	CloudSuite Suite = "cloudsuite"
)

// Profile is the measured profile of one benchmark on the reference server.
type Profile struct {
	// Name is the benchmark name, e.g. "dedup".
	Name string
	// Suite is the benchmark suite.
	Suite Suite
	// Domain is the scientific domain per Table 1.
	Domain string
	// MeanDuration is the mean execution time on the reference server.
	MeanDuration time.Duration
	// MeanPowerW is the mean whole-server power draw while running (watts).
	MeanPowerW float64
	// PackageMB is the size of the compressed execution files and
	// dependencies transferred when the job migrates (MB of .tar).
	PackageMB float64
	// DurationCV is the coefficient of variation of actual run times.
	DurationCV float64
	// PowerCV is the coefficient of variation of actual power draw.
	PowerCV float64
}

// MeanEnergy returns the profile's mean energy per run.
func (p Profile) MeanEnergy() units.KWh {
	return units.KWh(p.MeanPowerW / 1000 * p.MeanDuration.Hours())
}

// profiles is the static database, roughly calibrated to published PARSEC
// native-input runtimes and CloudSuite service benchmarks scaled to batch
// analysis windows, on a 96-core m5.metal-class machine (idle ~180 W, full
// load ~350 W).
var profiles = []Profile{
	{Name: "dedup", Suite: PARSEC, Domain: "data compression", MeanDuration: 6 * time.Minute, MeanPowerW: 310, PackageMB: 750, DurationCV: 0.18, PowerCV: 0.07},
	{Name: "netdedup", Suite: PARSEC, Domain: "data compression", MeanDuration: 8 * time.Minute, MeanPowerW: 300, PackageMB: 780, DurationCV: 0.20, PowerCV: 0.08},
	{Name: "canneal", Suite: PARSEC, Domain: "engineering", MeanDuration: 14 * time.Minute, MeanPowerW: 290, PackageMB: 420, DurationCV: 0.15, PowerCV: 0.06},
	{Name: "blackscholes", Suite: PARSEC, Domain: "financial analysis", MeanDuration: 4 * time.Minute, MeanPowerW: 330, PackageMB: 120, DurationCV: 0.10, PowerCV: 0.05},
	{Name: "swaptions", Suite: PARSEC, Domain: "financial analysis", MeanDuration: 9 * time.Minute, MeanPowerW: 340, PackageMB: 95, DurationCV: 0.12, PowerCV: 0.05},
	{Name: "data-caching", Suite: CloudSuite, Domain: "in-memory caching", MeanDuration: 20 * time.Minute, MeanPowerW: 260, PackageMB: 900, DurationCV: 0.22, PowerCV: 0.09},
	{Name: "graph-analytics", Suite: CloudSuite, Domain: "graph analytics", MeanDuration: 32 * time.Minute, MeanPowerW: 320, PackageMB: 1400, DurationCV: 0.25, PowerCV: 0.08},
	{Name: "web-serving", Suite: CloudSuite, Domain: "web serving", MeanDuration: 15 * time.Minute, MeanPowerW: 240, PackageMB: 1100, DurationCV: 0.20, PowerCV: 0.10},
	{Name: "memory-analytics", Suite: CloudSuite, Domain: "in-memory analytics", MeanDuration: 26 * time.Minute, MeanPowerW: 305, PackageMB: 1250, DurationCV: 0.24, PowerCV: 0.08},
	{Name: "media-streaming", Suite: CloudSuite, Domain: "media streaming", MeanDuration: 18 * time.Minute, MeanPowerW: 275, PackageMB: 1600, DurationCV: 0.21, PowerCV: 0.09},
}

var byName = func() map[string]Profile {
	m := make(map[string]Profile, len(profiles))
	for _, p := range profiles {
		m[p.Name] = p
	}
	return m
}()

// All returns the full benchmark list, sorted by name for stable iteration.
func All() []Profile {
	out := append([]Profile(nil), profiles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns all benchmark names, sorted.
func Names() []string {
	ps := All()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Lookup returns the profile for a benchmark name.
func Lookup(name string) (Profile, error) {
	p, ok := byName[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// DefaultPackageMB is the deployment package size assumed for a benchmark
// the profile database does not know.
const DefaultPackageMB = 500

// PackageMB returns the deployment package size of a benchmark, or
// DefaultPackageMB when the name is unknown — the one rule the controllers
// and the simulator all price a job's transfer by.
func PackageMB(name string) float64 {
	if p, ok := byName[name]; ok {
		return p.PackageMB
	}
	return DefaultPackageMB
}

// Actuals are one job run's realized duration and energy, drawn around the
// profile means.
type Actuals struct {
	Duration time.Duration
	Energy   units.KWh
}

// Sample draws the actual duration and energy of one run using the
// profile's coefficients of variation. Durations are floored at 10% of the
// mean so pathological draws cannot go non-positive.
func (p Profile) Sample(rng *stats.Rand) Actuals {
	d := rng.Normal(1, p.DurationCV)
	if d < 0.1 {
		d = 0.1
	}
	w := rng.Normal(1, p.PowerCV)
	if w < 0.5 {
		w = 0.5
	}
	dur := time.Duration(float64(p.MeanDuration) * d)
	return Actuals{
		Duration: dur,
		Energy:   units.KWh(p.MeanPowerW * w / 1000 * dur.Hours()),
	}
}
