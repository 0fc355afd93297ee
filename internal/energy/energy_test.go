package energy

import (
	"math"
	"testing"
	"testing/quick"

	"waterwise/internal/stats"
)

func TestFig1Shape(t *testing.T) {
	// The paper's Fig. 1 anchors: coal CI ~62x hydro CI; hydro EWIF ~11x
	// coal EWIF; fossil sources carbon-worse than renewables on average.
	hydro, coal := Table[Hydro], Table[Coal]
	if r := float64(coal.CI) / float64(hydro.CI); r < 50 || r > 75 {
		t.Errorf("coal/hydro CI ratio = %.1f, want ~62", r)
	}
	if r := float64(hydro.EWIF) / float64(coal.EWIF); r < 9 || r > 13 {
		t.Errorf("hydro/coal EWIF ratio = %.1f, want ~11", r)
	}
	for _, s := range []Source{Gas, Oil, Coal} {
		if !s.IsFossil() {
			t.Errorf("%v should be fossil", s)
		}
		if Table[s].CI < 400 {
			t.Errorf("fossil %v CI = %v, suspiciously low", s, Table[s].CI)
		}
	}
	for _, s := range []Source{Nuclear, Wind, Hydro, Geothermal, Solar} {
		if s.IsFossil() {
			t.Errorf("%v should not be fossil", s)
		}
		if Table[s].CI > 100 {
			t.Errorf("clean %v CI = %v, suspiciously high", s, Table[s].CI)
		}
	}
}

func TestAllSourcesComplete(t *testing.T) {
	srcs := AllSources()
	if len(srcs) != 9 {
		t.Fatalf("want 9 sources, got %d", len(srcs))
	}
	seen := map[string]bool{}
	for _, s := range srcs {
		name := s.String()
		if seen[name] {
			t.Errorf("duplicate source name %q", name)
		}
		seen[name] = true
		if Table[s] == (Factors{}) {
			t.Errorf("source %v missing from Table", s)
		}
		if WRITable[s] == (Factors{}) {
			t.Errorf("source %v missing from WRITable", s)
		}
	}
	if Source(99).String() == "" {
		t.Error("unknown source should stringify to something")
	}
}

func TestWRITableDiffersOnlyInWater(t *testing.T) {
	for _, s := range AllSources() {
		if Table[s].CI != WRITable[s].CI {
			t.Errorf("%v: WRI table changes carbon intensity (%v vs %v)", s, Table[s].CI, WRITable[s].CI)
		}
		if Table[s].EWIF == WRITable[s].EWIF {
			t.Errorf("%v: WRI table should differ in EWIF", s)
		}
	}
}

func TestMixNormalize(t *testing.T) {
	m := Mix{Hydro: 2, Gas: 2}
	n := m.Normalize()
	if math.Abs(n.Total()-1) > 1e-12 {
		t.Errorf("normalized total = %g, want 1", n.Total())
	}
	if math.Abs(n[Hydro]-0.5) > 1e-12 {
		t.Errorf("hydro share = %g, want 0.5", n[Hydro])
	}
	// Negative and zero entries are dropped.
	m2 := Mix{Hydro: -1, Gas: 0, Coal: 3}
	n2 := m2.Normalize()
	if math.Abs(n2.Total()-1) > 1e-12 || math.Abs(n2[Coal]-1) > 1e-12 || n2[Hydro] != 0 {
		t.Errorf("normalize with junk entries = %v, want {coal:1}", n2)
	}
	// All-zero mix.
	if n3 := (Mix{Gas: 0}).Normalize(); n3.Total() != 0 {
		t.Errorf("normalize of zero mix = %v, want empty", n3)
	}
}

func TestMixIntensities(t *testing.T) {
	m := Mix{Hydro: 0.5, Coal: 0.5}
	ci := m.CarbonIntensity(Table)
	want := 0.5*float64(Table[Hydro].CI) + 0.5*float64(Table[Coal].CI)
	if math.Abs(float64(ci)-want) > 1e-9 {
		t.Errorf("CI = %v, want %v", ci, want)
	}
	ew := m.EWIF(Table)
	wantE := 0.5*float64(Table[Hydro].EWIF) + 0.5*float64(Table[Coal].EWIF)
	if math.Abs(float64(ew)-wantE) > 1e-9 {
		t.Errorf("EWIF = %v, want %v", ew, wantE)
	}
}

func TestMixCloneIndependent(t *testing.T) {
	m := Mix{Hydro: 0.5, Gas: 0.5}
	c := m.Clone()
	c[Hydro] = 0.9
	if m[Hydro] != 0.5 {
		t.Error("clone mutation leaked into original")
	}
}

func TestMixStringStable(t *testing.T) {
	m := Mix{Gas: 0.25, Hydro: 0.75}
	a, b := m.String(), m.String()
	if a != b {
		t.Errorf("String not deterministic: %q vs %q", a, b)
	}
	if a != "{hydro:0.75 gas:0.25}" {
		t.Errorf("String = %q, want {hydro:0.75 gas:0.25}", a)
	}
}

// Property: normalized mixes always sum to 1 and the mix intensities stay
// within the [min, max] of the participating sources.
func TestQuickMixProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		m := Mix{}
		for _, s := range AllSources() {
			if rng.Float64() < 0.6 {
				m[s] = rng.Float64() * 5
			}
		}
		n := m.Normalize()
		if n.Total() == 0 {
			return true // zero-total mixes normalize to the empty mix
		}
		if math.Abs(n.Total()-1) > 1e-9 {
			t.Logf("seed %d: total %g", seed, n.Total())
			return false
		}
		minCI, maxCI := math.Inf(1), math.Inf(-1)
		for s, share := range n {
			if share < 0 {
				t.Logf("seed %d: negative share", seed)
				return false
			}
			if share == 0 {
				continue // not a participating source
			}
			ci := float64(Table[Source(s)].CI)
			if ci < minCI {
				minCI = ci
			}
			if ci > maxCI {
				maxCI = ci
			}
		}
		got := float64(n.CarbonIntensity(Table))
		if got < minCI-1e-9 || got > maxCI+1e-9 {
			t.Logf("seed %d: CI %g outside [%g,%g]", seed, got, minCI, maxCI)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
