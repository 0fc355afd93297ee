// Package obs is the serving stack's dependency-free observability core:
// lock-cheap streaming latency histograms that merge across shards and
// render as proper Prometheus histogram families, a bounded per-round
// trace ring that attributes every scheduling round's wall time to its
// stages (batch assembly, solve, WAL append, fsync, snapshot, decision
// publish) and retains the slowest rounds as exemplars, and sampled
// per-job lifecycle traces (accepted → batched → decided).
//
// Everything here is measurement only: nothing in this package feeds
// back into scheduling, so instrumenting a server cannot perturb its
// decisions — the replay- and crash-equivalence proofs hold with
// observability on or off.
//
// The package also carries the other side of the contract: a strict
// Prometheus text-format parser (ParseProm/LintProm) that the metrics
// tests, the CI metrics-lint job, and loadgen's server-side percentile
// scrape all share.
package obs

import (
	"math"
	"sync/atomic"
)

// Bucket scheme: log-spaced boundaries with bucketsPerOctave buckets per
// factor of two, spanning histMin seconds (~1µs) to histMin·2^octaves
// (~4194s). The relative width of one bucket is 2^(1/4)-1 ≈ 19%, so any
// quantile read off the histogram is within ~9.5% of the true value —
// the "bucket error" the merge property tests assert against. The scheme
// is a package-level constant so every histogram is mergeable with every
// other by plain counter addition.
const (
	bucketsPerOctave = 4
	octaves          = 32
	numBuckets       = bucketsPerOctave * octaves
	histMinExp       = -20 // 2^-20 s ≈ 0.95µs, the smallest resolved value
)

// boundaries[i] is the inclusive upper edge of bucket i, in seconds.
var boundaries = func() [numBuckets]float64 {
	var b [numBuckets]float64
	for i := range b {
		b[i] = math.Exp2(float64(histMinExp) + float64(i+1)/bucketsPerOctave)
	}
	return b
}()

// bucketIndex maps a value in seconds to its bucket: the smallest i with
// v <= boundaries[i], or numBuckets for values past the last edge (they
// count toward +Inf only). Non-positive values land in bucket 0.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	// log2(v) = exp + log2(frac) with frac in [0.5, 1): cheaper and more
	// stable than math.Log2 alone at the bucket edges is not needed —
	// a single Log2 with a floor is exact enough because edges are exact
	// powers of 2^(1/4) and observations are arbitrary floats.
	idx := int(math.Ceil((math.Log2(v) - histMinExp) * bucketsPerOctave))
	if idx < 1 {
		return 0
	}
	// Ceil puts an exact edge value in the bucket it bounds; floating
	// error can land an edge one off, which is inside the scheme's
	// stated bucket error either way.
	idx--
	if idx > numBuckets {
		return numBuckets
	}
	return idx
}

// Histogram is a lock-free streaming histogram over the package bucket
// scheme. Record is safe for concurrent use (atomic counter adds plus a
// CAS loop for the sum); readers take a Snapshot, which is monotonic but
// not a point-in-time cut — fine for monitoring counters.
//
// The zero value is ready to use. A nil *Histogram ignores Record and
// snapshots empty, so call sites need no "is observability on" branches.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	over   atomic.Uint64 // observations past the last finite edge
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// Record adds one observation in seconds.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	if i := bucketIndex(v); i < numBuckets {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot copies the histogram's counters for merging, quantile reads,
// and rendering.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Over = h.over.Load()
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// Snapshot is an immutable copy of a Histogram's counters. Snapshots
// from any histograms merge by addition because the bucket scheme is
// shared package-wide.
type Snapshot struct {
	// Counts[i] is the number of observations in bucket i.
	Counts [numBuckets]uint64
	// Over counts observations past the last finite bucket edge.
	Over uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values, in seconds.
	Sum float64
}

// Merge adds other's counters into s — the shard → service aggregation
// step. Quantiles of the merged snapshot equal quantiles of the combined
// observation stream within the bucket error.
func (s *Snapshot) Merge(other Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Over += other.Over
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds, linearly
// interpolating within the holding bucket. Returns 0 on an empty
// snapshot; q past the last finite edge reports that edge.
func (s *Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = boundaries[i-1]
			}
			hi := boundaries[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return boundaries[numBuckets-1]
}

// Mean reports the arithmetic mean in seconds (0 when empty).
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
