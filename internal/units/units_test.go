package units

import (
	"math"
	"strings"
	"testing"
)

func TestConversions(t *testing.T) {
	if got := Carbon(2, 300); got != 600 {
		t.Errorf("Carbon(2,300) = %v, want 600", got)
	}
	if got := OffsiteWater(2, 3.5); got != 7 {
		t.Errorf("OffsiteWater(2,3.5) = %v, want 7", got)
	}
	if got := OnsiteWater(4, 0.5); got != 2 {
		t.Errorf("OnsiteWater(4,0.5) = %v, want 2", got)
	}
}

func TestKgAndJoules(t *testing.T) {
	if got := GramsCO2(2500).Kg(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Kg = %g, want 2.5", got)
	}
}

func TestStringsCarryUnits(t *testing.T) {
	cases := []struct {
		s    interface{ String() string }
		want string
	}{
		{KWh(1.5), "kWh"},
		{GramsCO2(10), "gCO2"},
		{Liters(3), "L"},
		{CarbonIntensity(100), "gCO2/kWh"},
		{EWIF(2), "L/kWh"},
		{WUE(3), "L/kWh"},
		{WaterIntensity(9), "L/kWh"},
		{Celsius(21), "°C"},
	}
	for _, c := range cases {
		if !strings.Contains(c.s.String(), c.want) {
			t.Errorf("%T.String() = %q, missing unit %q", c.s, c.s.String(), c.want)
		}
	}
}
