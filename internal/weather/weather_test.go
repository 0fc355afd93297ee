package weather

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/units"
)

func TestWUEMonotoneInWetBulb(t *testing.T) {
	prev := WUEFromWetBulb(-5)
	for c := -4.0; c <= 35; c++ {
		cur := WUEFromWetBulb(units.Celsius(c))
		if cur < prev-1e-9 {
			t.Fatalf("WUE not monotone: WUE(%.0f)=%v < WUE(%.0f)=%v", c, cur, c-1, prev)
		}
		prev = cur
	}
}

func TestWUEKnownPoints(t *testing.T) {
	// Cubic fit checkpoints (input °C, model evaluated in °F): cool sites
	// near the floor, Mumbai-like sites around 5 L/kWh.
	cases := []struct {
		c        float64
		min, max float64
	}{
		{0, 0.2, 1.5},
		{10, 1.5, 3.5},
		{25, 4.0, 6.0},
		{30, 5.5, 8.0},
	}
	for _, tc := range cases {
		w := float64(WUEFromWetBulb(units.Celsius(tc.c)))
		if w < tc.min || w > tc.max {
			t.Errorf("WUE(%g°C) = %.2f, want in [%g, %g]", tc.c, w, tc.min, tc.max)
		}
	}
}

func TestWUEFloor(t *testing.T) {
	if w := WUEFromWetBulb(-40); float64(w) != minWUE {
		t.Errorf("WUE(-40°C) = %v, want floor %v", w, minWUE)
	}
}

var testStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func TestGenerateDeterministic(t *testing.T) {
	p := Params{AnnualMean: 10, SeasonalAmp: 8, DiurnalAmp: 3, Noise: 1}
	a := Generate(p, testStart, 500, 42)
	b := Generate(p, testStart, 500, 42)
	for i := range a.WetBulb {
		if a.WetBulb[i] != b.WetBulb[i] {
			t.Fatalf("series differ at hour %d despite same seed", i)
		}
	}
	c := Generate(p, testStart, 500, 43)
	same := true
	for i := range a.WetBulb {
		if a.WetBulb[i] != c.WetBulb[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestSeasonalCycle(t *testing.T) {
	p := Params{AnnualMean: 10, SeasonalAmp: 8, DiurnalAmp: 0, Noise: 0}
	s := Generate(p, testStart, 365*24, 1)
	jan := float64(s.At(testStart.AddDate(0, 0, 14)))
	jul := float64(s.At(testStart.AddDate(0, 6, 14)))
	if jul <= jan {
		t.Errorf("July wet bulb (%.1f) should exceed January (%.1f) in the northern-hemisphere model", jul, jan)
	}
	if math.Abs(jul-jan) < 10 {
		t.Errorf("seasonal swing = %.1f, want close to 2*amp=16", jul-jan)
	}
}

func TestDiurnalCycle(t *testing.T) {
	p := Params{AnnualMean: 15, SeasonalAmp: 0, DiurnalAmp: 4, Noise: 0}
	s := Generate(p, testStart, 48, 1)
	night := float64(s.At(testStart.Add(3 * time.Hour)))
	day := float64(s.At(testStart.Add(15 * time.Hour)))
	if day <= night {
		t.Errorf("mid-afternoon (%.1f) should be warmer than pre-dawn (%.1f)", day, night)
	}
}

func TestAtClampsRange(t *testing.T) {
	p := Params{AnnualMean: 10}
	s := Generate(p, testStart, 24, 1)
	before := s.At(testStart.Add(-5 * time.Hour))
	first := s.WetBulb[0]
	if before != first {
		t.Errorf("At before start = %v, want clamp to first %v", before, first)
	}
	after := s.At(testStart.Add(1000 * time.Hour))
	last := s.WetBulb[len(s.WetBulb)-1]
	if after != last {
		t.Errorf("At after end = %v, want clamp to last %v", after, last)
	}
}

func TestEmptySeries(t *testing.T) {
	s := &Series{Start: testStart}
	if s.At(testStart) != 0 {
		t.Error("empty series At should be 0")
	}
}

// Property: WUE is always >= the floor and monotone in temperature for any
// pair of temperatures in a physical range.
func TestQuickWUEProperties(t *testing.T) {
	f := func(a, b float64) bool {
		ta := math.Mod(math.Abs(a), 60) - 20 // [-20, 40)
		tb := math.Mod(math.Abs(b), 60) - 20
		wa := WUEFromWetBulb(units.Celsius(ta))
		wb := WUEFromWetBulb(units.Celsius(tb))
		if wa < minWUE || wb < minWUE {
			return false
		}
		if ta < tb && wa > wb+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
