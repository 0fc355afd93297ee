package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSumVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Sum(xs) != 10 {
		t.Errorf("Sum = %g", Sum(xs))
	}
	if got := Variance(xs); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("Variance = %g, want 1.25", got)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("StdDev = %g", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %g, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %g, %v", mx, err)
	}
	if _, err := Min(nil); err == nil {
		t.Error("Min of empty should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max of empty should error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, %v; want %g", tc.p, got, err, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile should error")
	}
	if got, err := Percentile([]float64{9}, 40); err != nil || got != 9 {
		t.Errorf("single-element percentile = %g, %v", got, err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Correlation(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Correlation = %g, %v; want 1", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Correlation(xs, neg)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("Correlation = %g, %v; want -1", r, err)
	}
	if _, err := Correlation(xs, ys[:2]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance should error")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(5).Split("weather")
	d := NewRand(5).Split("weather")
	for i := 0; i < 50; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("split with same label diverged")
		}
	}
	e := NewRand(5).Split("grid")
	same := true
	f := NewRand(5).Split("weather")
	for i := 0; i < 50; i++ {
		if e.Float64() != f.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("different split labels produced identical streams")
	}
}

func TestSamplers(t *testing.T) {
	rng := NewRand(7)
	var normals []float64
	for i := 0; i < 20000; i++ {
		normals = append(normals, rng.Normal(10, 2))
	}
	if m := Mean(normals); math.Abs(m-10) > 0.1 {
		t.Errorf("normal mean = %g, want ~10", m)
	}
	if s := StdDev(normals); math.Abs(s-2) > 0.1 {
		t.Errorf("normal std = %g, want ~2", s)
	}
}

func TestPoisson(t *testing.T) {
	rng := NewRand(11)
	for _, lambda := range []float64{0.5, 3, 50} {
		var xs []float64
		for i := 0; i < 20000; i++ {
			xs = append(xs, float64(rng.Poisson(lambda)))
		}
		if m := Mean(xs); math.Abs(m-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, m)
		}
		if v := Variance(xs); math.Abs(v-lambda)/lambda > 0.10 {
			t.Errorf("Poisson(%g) variance = %g", lambda, v)
		}
	}
	if NewRand(1).Poisson(0) != 0 || NewRand(1).Poisson(-2) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 10)
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		prev := mn
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil {
				return false
			}
			if v < prev-1e-9 || v < mn-1e-9 || v > mx+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
