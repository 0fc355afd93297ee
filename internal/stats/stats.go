// Package stats provides the small statistical toolkit used across the
// WaterWise simulator: summary statistics, percentiles, correlation, and a
// deterministic splittable random source so every experiment is exactly
// reproducible from a seed.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs and an error for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs and an error for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns an error for empty input
// or out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns an error if the lengths differ, are < 2, or either series has
// zero variance.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Rand is a deterministic random source with convenience samplers used by
// the trace, weather, and grid-mix generators.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator from this one; the child's
// stream is a pure function of the parent seed and the label, so generators
// for different subsystems never interleave draws.
func (g *Rand) Split(label string) *Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return NewRand(h ^ g.r.Int63())
}

// Float64 returns a uniform draw in [0,1).
func (g *Rand) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *Rand) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a draw from N(mean, std^2).
func (g *Rand) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (g *Rand) Perm(n int) []int { return g.r.Perm(n) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Poisson returns a draw from a Poisson distribution with the given mean,
// using Knuth's method for small means and a rounded normal approximation
// for large ones.
func (g *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := g.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		k++
		p *= g.Float64()
		if p <= limit {
			return k - 1
		}
	}
}
