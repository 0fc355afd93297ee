package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi] // also keeps +Inf (a failed operation) from turning into NaN
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// faster is the quartile on the good side of a run's repeated units
// (iterations or steps): the upper quartile of rates, the lower quartile of
// times. Other tenants of a shared machine only ever make a unit slower, so
// the faster units are the ones that measured the program; the quartile,
// not the extreme, keeps one lucky unit from setting the figure.
func faster(xs []float64, better string) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == higher {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), because that is what the driver judges the spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := quantile(s, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// topQuantile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it, so a reported tail is never a single
// outlier; with fewer than 20 samples only the median is supported.
func topQuantile(n int) float64 {
	top := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10-1e-9 { // 100*(1-0.9) is 9.999... in floating point
			top = q
		}
	}
	return top
}

// digest summarises a latency sample: count, median, and the highest
// percentile the count supports.
type digest struct {
	N    int
	P50  float64
	TopQ float64
	Top  float64
}

// summarize sorts xs in place and digests it. Infinite samples (failed
// operations) sort last, so they push the tail out instead of vanishing.
func summarize(xs []float64) digest {
	sort.Float64s(xs)
	q := topQuantile(len(xs))
	return digest{N: len(xs), P50: quantile(xs, 0.5), TopQ: q, Top: quantile(xs, q)}
}

// weightedQuantile is the q-quantile of a sample in which values[i] occurs
// weights[i] times (a round's wall time counted once per job it decided).
func weightedQuantile(values []float64, weights []int, q float64) float64 {
	idx := make([]int, 0, len(values))
	total := 0
	for i, w := range weights {
		if w > 0 {
			idx = append(idx, i)
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	want := q * float64(total-1)
	seen := 0
	for _, i := range idx {
		seen += weights[i]
		if float64(seen-1) >= want {
			return values[i]
		}
	}
	return values[idx[len(idx)-1]]
}
