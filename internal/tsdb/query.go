// Windowed queries over the store: increase/rate for counters and
// histogram quantiles reconstructed from recorded bucket series.
//
// A series reference is a family name, optionally narrowed by labels
// (name{k="v",...}, in any order): it selects every series of the family
// whose labels include the named ones, and windowed queries sum over the
// selection — a bare name sums every label set, the natural reading for
// per-provider or per-shard counters, and a full label set names one
// series.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"waterwise/internal/obs"
)

// Increase returns the growth of a counter reference over the window of
// `window` rounds ending at round `end` (end == 0 means the latest
// recorded round), summed over the series the reference selects.
// ok is false when nothing was recorded for the reference at all.
func (st *Store) Increase(ref string, window, end uint64) (float64, bool) {
	end = st.resolveEnd(end)
	keys, err := st.refKeys(ref)
	if err != nil || len(keys) == 0 {
		return 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	total := 0.0
	any := false
	for _, k := range keys {
		v, ok := st.increaseLocked(k, window, end)
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

// increaseLocked computes one series' growth over (end-window, end]. The
// baseline is the newest sample at or before end-window; when the series
// starts inside the window the earliest surviving sample stands in, so a
// recorder attached mid-run doesn't report the counter's whole lifetime
// as one window's increase.
func (st *Store) increaseLocked(key string, window, end uint64) (float64, bool) {
	cur, ok := st.valueAtLocked(key, end)
	if !ok {
		return 0, false
	}
	var start uint64
	if window < end {
		start = end - window
	}
	base, ok := st.valueAtLocked(key, start)
	if !ok {
		first, okF := st.earliestLocked(key)
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

// resolveEnd maps end==0 to the newest round recorded anywhere.
func (st *Store) resolveEnd(end uint64) uint64 {
	if end != 0 {
		return end
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sr := range st.series {
		if n := len(sr.chunks); n > 0 && sr.chunks[n-1].maxT > end {
			end = sr.chunks[n-1].maxT
		}
	}
	return end
}

// refKeys expands a series reference to the keys of its family whose
// labels include every label the reference names: a bare name selects the
// whole family, a full label set one series.
func (st *Store) refKeys(ref string) ([]string, error) {
	name, want, err := splitRef(ref)
	if err != nil {
		return nil, err
	}
	keys := st.KeysOf(name)
	if len(want) == 0 {
		return keys, nil
	}
	out := keys[:0]
	for _, k := range keys {
		if _, labels, err := SplitKey(k); err == nil && hasLabels(labels, want) {
			out = append(out, k)
		}
	}
	return out, nil
}

// QueryRef is Query for a series reference: it returns the samples of the
// one series the reference selects, and none when it selects nothing. A
// malformed reference, or one that selects several series, is an error
// that names them.
func (st *Store) QueryRef(ref string, from, to uint64) ([]Sample, error) {
	keys, err := st.refKeys(ref)
	switch {
	case err != nil:
		return nil, err
	case len(keys) == 0:
		return nil, nil
	case len(keys) > 1:
		return nil, fmt.Errorf("tsdb: %q matches %d series: %s", ref, len(keys), strings.Join(keys, ", "))
	}
	return st.Query(keys[0], from, to), nil
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
	end = st.resolveEnd(end)
	name, want, err := splitRef(ref)
	if err != nil {
		return 0, false
	}
	var start uint64
	if window < end {
		start = end - window
	}
	les, startCums, okS := st.histAt(name, want, start, true)
	_, endCums, okE := st.histAt(name, want, end, false)
	if !okE {
		return 0, false
	}
	cums := make([]uint64, len(les))
	var run float64
	for i := range les {
		d := endCums[i]
		if okS && i < len(startCums) {
			d -= startCums[i]
		}
		if d < 0 {
			d = 0
		}
		// Enforce cumulative monotonicity: carry-down reconstruction can
		// momentarily invert adjacent edges when a bucket series first
		// appears mid-window.
		if d < run {
			d = run
		}
		run = d
		cums[i] = uint64(math.Round(d))
	}
	if len(cums) == 0 || cums[len(cums)-1] == 0 {
		return 0, false
	}
	return obs.QuantileFromBuckets(les, cums, q), true
}

// histAt reconstructs the cumulative-in-le histogram of one family at
// round T: for every label group matching `want` (le excluded), walk its
// bucket edges in ascending le carrying the last observed cumulative
// value downward — correct because the exposition elides a bucket line
// only while its own count is zero — and sum groups edge-by-edge over the
// union of all edges ever recorded. baseline=true applies the same
// earliest-sample fallback as increaseLocked for series born after T.
func (st *Store) histAt(name string, want map[string]string, T uint64, baseline bool) (les []float64, cums []float64, ok bool) {
	bucket := name + "_bucket"
	keys := st.KeysOf(bucket)
	st.mu.Lock()
	defer st.mu.Unlock()

	// Group keys by their label identity minus le.
	type edge struct {
		le  float64
		key string
	}
	groups := make(map[string][]edge)
	leSet := make(map[float64]bool)
	for _, k := range keys {
		// Stored keys are Key's output, which splitRef reads exactly;
		// SplitKey's canonical check would render each one again, on
		// every scrape of a latency objective.
		_, labels, err := splitRef(k)
		if err != nil {
			continue
		}
		leStr, has := labels["le"]
		if !has || !hasLabels(labels, want) {
			continue
		}
		le, err := parseLEValue(leStr)
		if err != nil {
			continue
		}
		delete(labels, "le")
		gk := Key(bucket, labels)
		groups[gk] = append(groups[gk], edge{le: le, key: k})
		leSet[le] = true
	}
	if len(leSet) == 0 {
		return nil, nil, false
	}
	les = make([]float64, 0, len(leSet))
	for le := range leSet {
		les = append(les, le)
	}
	sort.Float64s(les)
	cums = make([]float64, len(les))

	gks := make([]string, 0, len(groups))
	for gk := range groups {
		gks = append(gks, gk)
	}
	sort.Strings(gks)
	for _, gk := range gks {
		edges := groups[gk]
		sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })
		run := 0.0
		ei := 0
		for i, le := range les {
			for ei < len(edges) && edges[ei].le <= le {
				v, okV := st.valueAtLocked(edges[ei].key, T)
				if !okV && baseline {
					if first, okF := st.earliestLocked(edges[ei].key); okF {
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

// FracAtMost returns the fraction of a histogram family's windowed
// observations at or below threshold (same unit as the bucket edges),
// linearly interpolating inside the straddling bucket. ok is false when
// the window holds no observations.
func (st *Store) FracAtMost(ref string, threshold float64, window, end uint64) (float64, bool) {
	end = st.resolveEnd(end)
	name, want, err := splitRef(ref)
	if err != nil {
		return 0, false
	}
	var start uint64
	if window < end {
		start = end - window
	}
	les, startCums, okS := st.histAt(name, want, start, true)
	_, endCums, okE := st.histAt(name, want, end, false)
	if !okE {
		return 0, false
	}
	deltas := make([]float64, len(les))
	run := 0.0
	for i := range les {
		d := endCums[i]
		if okS && i < len(startCums) {
			d -= startCums[i]
		}
		if d < run {
			d = run
		}
		run = d
		deltas[i] = d
	}
	if len(deltas) == 0 {
		return 0, false
	}
	total := deltas[len(deltas)-1]
	if total <= 0 {
		return 0, false
	}
	var below float64
	for i, le := range les {
		if le <= threshold {
			below = deltas[i]
			continue
		}
		prev := 0.0
		prevLE := 0.0
		if i > 0 {
			prev = deltas[i-1]
			prevLE = les[i-1]
		}
		if math.IsInf(le, 1) || le <= prevLE {
			below = prev
		} else {
			frac := (threshold - prevLE) / (le - prevLE)
			if frac < 0 {
				frac = 0
			}
			below = prev + (deltas[i]-prev)*frac
		}
		break
	}
	if below > total {
		below = total
	}
	return below / total, true
}

// parseLEValue parses a bucket edge, accepting +Inf.
func parseLEValue(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// LastRound returns the newest round recorded anywhere in the store
// (0 when empty).
func (st *Store) LastRound() uint64 { return st.resolveEnd(0) }
