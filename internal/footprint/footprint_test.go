package footprint

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/units"
)

func snap() region.Snapshot {
	return region.Snapshot{
		Region: region.Oregon, CI: 300, EWIF: 2.5, WUE: 3.0, WSF: 0.5, PUE: 1.2,
	}
}

func TestEquation1Carbon(t *testing.T) {
	m := NewModel(NoPerturbation)
	fp := m.ForJob(snap(), 0.1, time.Hour)
	wantOp := 0.1 * 300.0
	if got := float64(fp.OperationalCarbon); math.Abs(got-wantOp) > 1e-9 {
		t.Errorf("operational carbon = %g, want %g", got, wantOp)
	}
	wantEmb := float64(time.Hour) / float64(ServerLifetime) * float64(ServerEmbodiedCarbon)
	if got := float64(fp.EmbodiedCarbon); math.Abs(got-wantEmb) > 1e-6 {
		t.Errorf("embodied carbon = %g, want %g", got, wantEmb)
	}
	if got, want := float64(fp.Carbon()), wantOp+wantEmb; math.Abs(got-want) > 1e-6 {
		t.Errorf("total carbon = %g, want %g", got, want)
	}
}

func TestEquations2to5Water(t *testing.T) {
	m := NewModel(NoPerturbation)
	s := snap()
	fp := m.ForJob(s, 0.1, time.Hour)
	wantOff := 1.2 * 0.1 * 2.5 * 1.5 // PUE*E*EWIF*(1+WSF)
	if got := float64(fp.OffsiteWater); math.Abs(got-wantOff) > 1e-9 {
		t.Errorf("offsite water = %g, want %g (Eq. 2)", got, wantOff)
	}
	wantOn := 0.1 * 3.0 * 1.5 // E*WUE*(1+WSF)
	if got := float64(fp.OnsiteWater); math.Abs(got-wantOn) > 1e-9 {
		t.Errorf("onsite water = %g, want %g (Eq. 3)", got, wantOn)
	}
	wantEmb := float64(time.Hour) / float64(ServerLifetime) * float64(ServerEmbodiedWater())
	if got := float64(fp.EmbodiedWater); math.Abs(got-wantEmb) > 1e-9 {
		t.Errorf("embodied water = %g, want %g (Eq. 4)", got, wantEmb)
	}
	if got, want := float64(fp.Water()), wantOff+wantOn+wantEmb; math.Abs(got-want) > 1e-9 {
		t.Errorf("total water = %g, want %g (Eq. 5)", got, want)
	}
}

func TestServerEmbodiedWaterEquation4(t *testing.T) {
	want := float64(ServerEmbodiedCarbon) / float64(ManufacturingCI) *
		float64(ManufacturingEWIF) * (1 + ManufacturingWSF)
	if got := float64(ServerEmbodiedWater()); math.Abs(got-want) > 1e-9 {
		t.Errorf("ServerEmbodiedWater = %g, want %g", got, want)
	}
}

func TestWaterIntensityEquation6(t *testing.T) {
	m := NewModel(NoPerturbation)
	s := snap()
	want := (3.0 + 1.2*2.5) * 1.5
	if got := float64(m.WaterIntensity(s)); math.Abs(got-want) > 1e-12 {
		t.Errorf("water intensity = %g, want %g", got, want)
	}
}

func TestPerturbationScaling(t *testing.T) {
	s := snap()
	exact := NewModel(NoPerturbation).ForJob(s, 0.1, time.Hour)
	pert := NewModel(Perturbation{EmbodiedCarbonFactor: 1.1, WaterIntensityFactor: 0.9}).ForJob(s, 0.1, time.Hour)
	if got, want := float64(pert.EmbodiedCarbon), 1.1*float64(exact.EmbodiedCarbon); math.Abs(got-want) > 1e-9 {
		t.Errorf("embodied carbon perturbation: got %g, want %g", got, want)
	}
	if got, want := float64(pert.OffsiteWater), 0.9*float64(exact.OffsiteWater); math.Abs(got-want) > 1e-9 {
		t.Errorf("offsite water perturbation: got %g, want %g", got, want)
	}
	if got, want := float64(pert.OnsiteWater), 0.9*float64(exact.OnsiteWater); math.Abs(got-want) > 1e-9 {
		t.Errorf("onsite water perturbation: got %g, want %g", got, want)
	}
	if pert.OperationalCarbon != exact.OperationalCarbon {
		t.Error("operational carbon should not be perturbed")
	}
}

func TestZeroValuePerturbationDefaultsToExact(t *testing.T) {
	m := NewModel(Perturbation{})
	s := snap()
	exact := NewModel(NoPerturbation).ForJob(s, 0.2, 30*time.Minute)
	got := m.ForJob(s, 0.2, 30*time.Minute)
	if got != exact {
		t.Error("zero-value perturbation should behave like NoPerturbation")
	}
}

func TestAddAccumulates(t *testing.T) {
	m := NewModel(NoPerturbation)
	a := m.ForJob(snap(), 0.1, time.Hour)
	sum := a.Add(a)
	if math.Abs(float64(sum.Carbon())-2*float64(a.Carbon())) > 1e-9 {
		t.Error("Add should double carbon")
	}
	if math.Abs(float64(sum.Water())-2*float64(a.Water())) > 1e-9 {
		t.Error("Add should double water")
	}
}

// Property: footprints are monotone in energy, duration, carbon intensity,
// and WSF, and never negative.
func TestQuickFootprintMonotonicity(t *testing.T) {
	m := NewModel(NoPerturbation)
	f := func(e1, e2, ci, wsf float64) bool {
		ea := math.Mod(math.Abs(e1), 10)
		eb := ea + math.Mod(math.Abs(e2), 10) + 0.001
		s := snap()
		s.CI = units.CarbonIntensity(math.Mod(math.Abs(ci), 1000))
		s.WSF = math.Mod(math.Abs(wsf), 1)
		lo := m.ForJob(s, units.KWh(ea), time.Hour)
		hi := m.ForJob(s, units.KWh(eb), time.Hour)
		if lo.Carbon() < 0 || lo.Water() < 0 {
			return false
		}
		if hi.Carbon() < lo.Carbon() || hi.Water() < lo.Water() {
			return false
		}
		// Higher WSF strictly increases water, leaves carbon unchanged.
		s2 := s
		s2.WSF = s.WSF + 0.3
		w2 := m.ForJob(s2, units.KWh(ea), time.Hour)
		if w2.Water() <= lo.Water() && ea > 0 {
			return false
		}
		if w2.Carbon() != lo.Carbon() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a longer job has a strictly larger embodied share, with
// operational parts fixed per kWh.
func TestQuickEmbodiedScalesWithDuration(t *testing.T) {
	m := NewModel(NoPerturbation)
	f := func(mins int16) bool {
		d1 := time.Duration(int(mins)%300+1) * time.Minute
		d2 := d1 + 10*time.Minute
		a := m.ForJob(snap(), 0.1, d1)
		b := m.ForJob(snap(), 0.1, d2)
		return b.EmbodiedCarbon > a.EmbodiedCarbon && b.EmbodiedWater > a.EmbodiedWater &&
			a.OperationalCarbon == b.OperationalCarbon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
