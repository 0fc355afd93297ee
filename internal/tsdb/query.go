// Windowed queries over the store: increase/rate for counters and
// histogram quantiles reconstructed from recorded bucket series.
//
// A series reference is a family name, optionally narrowed by labels
// (name{k="v",...}, in any order, read by obs.ParseSeries like every
// stored identity): it selects every series of the family whose labels
// include the named ones, and windowed queries sum over the selection — a
// bare name sums every label set, the natural reading for per-provider or
// per-shard counters, and a full label set names one series.
package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"waterwise/internal/obs"
)

// Increase returns the growth of a counter reference over the window of
// `window` rounds ending at round `end` (end == 0 means the latest
// recorded round), summed over the series the reference selects.
// ok is false when nothing was recorded for the reference at all.
func (st *Store) Increase(ref string, window, end uint64) (float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sel, err := st.selectLocked(ref)
	if err != nil {
		return 0, false
	}
	end = st.resolveEndLocked(end)
	total := 0.0
	any := false
	for _, sr := range sel {
		v, ok := sr.increase(window, end)
		if ok {
			total += v
			any = true
		}
	}
	return total, any
}

// Rate is Increase divided by the window length, in events per round.
func (st *Store) Rate(ref string, window, end uint64) (float64, bool) {
	if window == 0 {
		return 0, false
	}
	v, ok := st.Increase(ref, window, end)
	return v / float64(window), ok
}

// increase computes one series' growth over (end-window, end]. The
// baseline is the newest sample at or before end-window; when the series
// starts inside the window the earliest surviving sample stands in, so a
// recorder attached mid-run doesn't report the counter's whole lifetime
// as one window's increase.
func (sr *series) increase(window, end uint64) (float64, bool) {
	cur, ok := sr.valueAt(end)
	if !ok {
		return 0, false
	}
	base, ok := sr.valueAt(windowStart(window, end))
	if !ok {
		first, okF := sr.earliest()
		if !okF || first.Round > end {
			return 0, false
		}
		base = first
	}
	d := cur.Value - base.Value
	if d < 0 {
		// Counter reset (e.g. a shard restarted): the post-reset value is
		// the best available lower bound on the true increase.
		d = cur.Value
	}
	return d, true
}

// windowStart is the round before a window's first: end-window, floored
// at 0.
func windowStart(window, end uint64) uint64 {
	if window < end {
		return end - window
	}
	return 0
}

// resolveEndLocked maps end==0 to the newest round recorded anywhere.
func (st *Store) resolveEndLocked(end uint64) uint64 {
	if end != 0 {
		return end
	}
	for _, sr := range st.series {
		if n := len(sr.chunks); n > 0 && sr.chunks[n-1].maxT > end {
			end = sr.chunks[n-1].maxT
		}
	}
	return end
}

// selectLocked returns the series of a reference's family whose labels
// include every label the reference names: a bare name selects the whole
// family, a full label set one series.
func (st *Store) selectLocked(ref string) ([]*series, error) {
	name, want, err := obs.ParseSeries(ref)
	if err != nil {
		return nil, err
	}
	var out []*series
	for _, sr := range st.byName[name] {
		if hasLabels(sr.labels, want) {
			out = append(out, sr)
		}
	}
	return out, nil
}

// hasLabels reports whether labels include every pair of want.
func hasLabels(labels, want map[string]string) bool {
	for k, v := range want {
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// QueryRef is Query for a series reference: it returns the samples of the
// one series the reference selects, and none when it selects nothing. A
// malformed reference, or one that selects several series, is an error
// that names them.
func (st *Store) QueryRef(ref string, from, to uint64) ([]Sample, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sel, err := st.selectLocked(ref)
	switch {
	case err != nil:
		return nil, fmt.Errorf("tsdb: series %q: %w", ref, err)
	case len(sel) == 0:
		return nil, nil
	case len(sel) > 1:
		keys := make([]string, len(sel))
		for i, sr := range sel {
			keys[i] = sr.key
		}
		slices.Sort(keys)
		return nil, fmt.Errorf("tsdb: %q matches %d series: %s", ref, len(keys), strings.Join(keys, ", "))
	}
	return sel[0].samples(from, to), nil
}

// QuantileOver reconstructs a histogram family's distribution over the
// window of `window` rounds ending at `end` and returns the q-quantile in
// the histogram's native unit (seconds for latency families). The ref
// names the family without the _bucket suffix; labels in the ref narrow
// the match (le is always ignored), so a bare fleet family sums its
// shards exactly — the bucket scheme is shared, so counter sums are the
// true merged histogram.
//
// ok is false when the window holds no observations.
func (st *Store) QuantileOver(ref string, q float64, window, end uint64) (float64, bool) {
	les, counts, ok := st.windowBuckets(ref, window, end)
	if !ok {
		return 0, false
	}
	cums := make([]uint64, len(counts))
	for i, c := range counts {
		cums[i] = uint64(math.Round(c))
	}
	return obs.QuantileFromBuckets(les, cums, q), true
}

// FracAtMost returns the fraction of a histogram family's windowed
// observations at or below threshold (same unit as the bucket edges),
// linearly interpolating inside the straddling bucket. ok is false when
// the window holds no observations.
func (st *Store) FracAtMost(ref string, threshold float64, window, end uint64) (float64, bool) {
	les, counts, ok := st.windowBuckets(ref, window, end)
	if !ok {
		return 0, false
	}
	total := counts[len(counts)-1]
	var below float64
	for i, le := range les {
		if le <= threshold {
			below = counts[i]
			continue
		}
		prev := 0.0
		prevLE := 0.0
		if i > 0 {
			prev = counts[i-1]
			prevLE = les[i-1]
		}
		if math.IsInf(le, 1) || le <= prevLE {
			below = prev
		} else {
			frac := (threshold - prevLE) / (le - prevLE)
			if frac < 0 {
				frac = 0
			}
			below = prev + (counts[i]-prev)*frac
		}
		break
	}
	if below > total {
		below = total
	}
	return below / total, true
}

// windowBuckets returns a histogram reference's windowed distribution:
// ascending bucket edges and, per edge, the cumulative count of
// observations in (end-window, end] at or below it — the histogram at end
// minus the histogram at the window's start, held non-decreasing in le
// (carry-down reconstruction can momentarily invert adjacent edges when a
// bucket series first appears mid-window). ok is false when the
// reference does not parse or the window holds no observations.
func (st *Store) windowBuckets(ref string, window, end uint64) (les, counts []float64, ok bool) {
	name, want, err := obs.ParseSeries(ref)
	if err != nil {
		return nil, nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	end = st.resolveEndLocked(end)
	les, startCums, okS := st.histAtLocked(name, want, windowStart(window, end), true)
	_, counts, okE := st.histAtLocked(name, want, end, false)
	if !okE {
		return nil, nil, false
	}
	run := 0.0
	for i := range counts {
		if okS {
			counts[i] -= startCums[i]
		}
		run = max(run, counts[i])
		counts[i] = run
	}
	return les, counts, run > 0
}

// histAtLocked reconstructs the cumulative-in-le histogram of one family
// at round T: for every label group matching `want` (its bucket series'
// labels minus le), walk its bucket edges in ascending le carrying the
// last observed cumulative value downward — correct because the
// exposition elides a bucket line only while its own count is zero — and
// sum groups edge-by-edge over the union of all edges ever recorded.
// baseline=true applies the same earliest-sample fallback as increase
// for series born after T.
func (st *Store) histAtLocked(name string, want map[string]string, T uint64, baseline bool) (les []float64, cums []float64, ok bool) {
	var groups [][]*series
	for _, sr := range st.byName[name+"_bucket"] {
		if math.IsNaN(sr.le) || !hasLabels(sr.labels, want) {
			continue
		}
		g := slices.IndexFunc(groups, func(g []*series) bool { return sameGroup(g[0].labels, sr.labels) })
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], sr)
		les = append(les, sr.le)
	}
	if len(les) == 0 {
		return nil, nil, false
	}
	slices.Sort(les)
	les = slices.Compact(les)
	cums = make([]float64, len(les))
	for _, edges := range groups {
		slices.SortFunc(edges, func(a, b *series) int { return cmp.Compare(a.le, b.le) })
		run := 0.0
		ei := 0
		for i, le := range les {
			for ei < len(edges) && edges[ei].le <= le {
				v, okV := edges[ei].valueAt(T)
				if !okV && baseline {
					if first, okF := edges[ei].earliest(); okF {
						// Born after T: its pre-window count is zero only if
						// the series is genuinely new; the earliest sample is
						// the tightest baseline we have.
						v, okV = first, true
					}
				}
				if okV && v.Value > run {
					run = v.Value
					ok = true
				}
				ei++
			}
			cums[i] += run
		}
	}
	return les, cums, ok
}

// sameGroup reports whether two bucket series' label sets differ at most
// in le: they are one histogram's edges.
func sameGroup(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; k != "le" && (!ok || w != v) {
			return false
		}
	}
	return true
}

// LastRound returns the newest round recorded anywhere in the store
// (0 when empty).
func (st *Store) LastRound() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.resolveEndLocked(0)
}
