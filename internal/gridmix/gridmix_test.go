package gridmix

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/stats"
	"waterwise/internal/units"
)

var testStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func testParams() Params {
	return Params{
		Base: energy.Mix{
			energy.Solar: 0.15, energy.Wind: 0.15, energy.Nuclear: 0.25,
			energy.Gas: 0.35, energy.Hydro: 0.10,
		},
		Dispatchable:    []energy.Source{energy.Gas, energy.Hydro},
		WindVariability: 0.4, WindPersistence: 0.8, ShareNoise: 0.05,
	}
}

func TestValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := testParams()
	bad.Base = energy.Mix{}
	if err := bad.Validate(); err == nil {
		t.Error("empty base mix accepted")
	}
	bad = testParams()
	bad.Base[energy.Gas] = 0.8 // sums to 1.45
	if err := bad.Validate(); err == nil {
		t.Error("non-normalized base mix accepted")
	}
	bad = testParams()
	bad.Dispatchable = []energy.Source{energy.Coal} // zero base share
	if err := bad.Validate(); err == nil {
		t.Error("zero-share dispatchable accepted")
	}
	bad = testParams()
	bad.WindPersistence = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("wind persistence 1.0 accepted")
	}
}

func TestGenerateNormalizedEveryHour(t *testing.T) {
	s, err := Generate(testParams(), testStart, 24*14, 3)
	if err != nil {
		t.Fatal(err)
	}
	for h, m := range s.Mixes {
		if math.Abs(m.Total()-1) > 1e-9 {
			t.Fatalf("hour %d: mix total %g != 1", h, m.Total())
		}
		for src, share := range m {
			if share < 0 {
				t.Fatalf("hour %d: negative share for %v", h, src)
			}
		}
	}
}

func TestSolarDiurnalPattern(t *testing.T) {
	s, err := Generate(testParams(), testStart, 24*30, 3)
	if err != nil {
		t.Fatal(err)
	}
	var nightSolar, middaySolar []float64
	for h, m := range s.Mixes {
		hod := (testStart.Hour() + h) % 24
		switch {
		case hod < 4:
			nightSolar = append(nightSolar, m[energy.Solar])
		case hod == 12 || hod == 13:
			middaySolar = append(middaySolar, m[energy.Solar])
		}
	}
	if mx, _ := stats.Max(nightSolar); mx > 1e-9 {
		t.Errorf("solar share at night = %g, want 0", mx)
	}
	if stats.Mean(middaySolar) < 0.2 {
		t.Errorf("midday solar share mean = %g, want substantially above the 0.15 base", stats.Mean(middaySolar))
	}
}

func TestLongRunAveragesNearBase(t *testing.T) {
	p := testParams()
	s, err := Generate(p, testStart, 24*365, 5)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[energy.Source]float64{}
	for _, m := range s.Mixes {
		for src, share := range m {
			avg[energy.Source(src)] += share
		}
	}
	n := float64(len(s.Mixes))
	for src, base := range p.Base {
		if base == 0 {
			continue
		}
		got := avg[energy.Source(src)] / n
		if math.Abs(got-base) > 0.06 {
			t.Errorf("%v long-run share = %.3f, base %.3f (drift too large)", energy.Source(src), got, base)
		}
	}
}

func TestCarbonIntensityVariesOverTime(t *testing.T) {
	s, err := Generate(testParams(), testStart, 24*30, 7)
	if err != nil {
		t.Fatal(err)
	}
	var cis []float64
	for _, mix := range s.Mixes {
		cis = append(cis, float64(mix.CarbonIntensity(energy.Table)))
	}
	if sd := stats.StdDev(cis); sd < 5 {
		t.Errorf("CI stddev = %.1f, want meaningful temporal variation", sd)
	}
	mn, _ := stats.Min(cis)
	mx, _ := stats.Max(cis)
	if mx/mn < 1.1 {
		t.Errorf("CI range [%.0f, %.0f] too flat", mn, mx)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(testParams(), testStart, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testParams(), testStart, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	for h := range a.Mixes {
		for src, share := range a.Mixes[h] {
			if b.Mixes[h][src] != share {
				t.Fatalf("hour %d source %v differs despite same seed", h, src)
			}
		}
	}
}

func TestSeriesClamping(t *testing.T) {
	s, err := Generate(testParams(), testStart, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := s.MixAt(testStart.Add(-10 * time.Hour))
	if math.Abs(before.Total()-1) > 1e-9 {
		t.Error("MixAt before start should clamp to first hour")
	}
	after := s.MixAt(testStart.Add(500 * time.Hour))
	if math.Abs(after.Total()-1) > 1e-9 {
		t.Error("MixAt after end should clamp to last hour")
	}
	empty := &Series{Start: testStart}
	if empty.MixAt(testStart).Total() != 0 {
		t.Error("empty series MixAt should be empty mix")
	}
	if empty.MeanCarbonIntensity(energy.Table) != 0 || empty.MeanEWIF(energy.Table) != 0 {
		t.Error("empty series means should be zero")
	}
}

func TestMeanHelpersConsistent(t *testing.T) {
	s, err := Generate(testParams(), testStart, 24*7, 13)
	if err != nil {
		t.Fatal(err)
	}
	var ciSum, ewSum float64
	for _, m := range s.Mixes {
		ciSum += float64(m.CarbonIntensity(energy.Table))
		ewSum += float64(m.EWIF(energy.Table))
	}
	n := float64(len(s.Mixes))
	if got := float64(s.MeanCarbonIntensity(energy.Table)); math.Abs(got-ciSum/n) > 1e-9 {
		t.Errorf("MeanCarbonIntensity = %v, want %v", got, ciSum/n)
	}
	if got := float64(s.MeanEWIF(energy.Table)); math.Abs(got-ewSum/n) > 1e-9 {
		t.Errorf("MeanEWIF = %v, want %v", got, ewSum/n)
	}
}

// Property: for any seed, every generated hour is a valid normalized mix
// with a carbon intensity within the possible source range.
func TestQuickGeneratedMixValidity(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Generate(testParams(), testStart, 72, seed)
		if err != nil {
			return false
		}
		for _, m := range s.Mixes {
			if math.Abs(m.Total()-1) > 1e-9 {
				return false
			}
			ci := float64(m.CarbonIntensity(energy.Table))
			if ci < 10 || ci > 1100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
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
