package obs

import "strconv"

// AppendHeader appends a family's # HELP and # TYPE lines. Every family
// in an exposition gets exactly one, before its first sample.
func AppendHeader(b []byte, name, typ, help string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// QuoteLabel quotes v as an exposition label value. The text format has
// exactly three escapes, \\, \" and \n; every other byte, a tab, a NUL or
// UTF-8 included, is written as is, so ParseSeries reads v back.
func QuoteLabel(v string) string {
	b := make([]byte, 0, len(v)+2)
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// AppendSample appends one counter or gauge sample line. labels is empty
// or a comma-joined `k="v"` list; the value renders as fmt's %g does.
func AppendSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// leLabels holds each bucket edge as its le label spells it, formatted
// once: the shortest float form, as Prometheus clients write edges, so
// every scrape names identical series.
var leLabels = func() (out [numBuckets]string) {
	for i, v := range boundaries {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}()

// AppendProm renders the snapshot as a Prometheus histogram family —
// cumulative `name_bucket{le="..."}` series, `name_sum`, and
// `name_count` — appended to b. labels is either empty or a
// comma-joined `k="v"` list spliced into every series (the le label is
// appended after it). Empty buckets between occupied ones are elided
// (each le series is an independent time series, so a sparse set is
// valid); the +Inf bucket always appears and equals _count.
//
// When withHeader is true the family's # HELP and # TYPE lines are
// emitted first — callers rendering several labeled snapshots of one
// family (per-shard series) emit the header once and pass false after.
func (s *Snapshot) AppendProm(b []byte, name, help, labels string, withHeader bool) []byte {
	if withHeader {
		b = AppendHeader(b, name, "histogram", help)
	}
	bucket := func(le string, n uint64) {
		b = append(b, name...)
		b = append(b, "_bucket{"...)
		if labels != "" {
			b = append(b, labels...)
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, n, 10)
		b = append(b, '\n')
	}
	var cum uint64
	prevEmitted := false
	for i, c := range s.Counts {
		if c == 0 {
			prevEmitted = false
			continue
		}
		if !prevEmitted && i > 0 && cum > 0 {
			// Re-anchor after an elided run so the scraper sees the
			// cumulative floor just below this occupied bucket.
			bucket(leLabels[i-1], cum)
		}
		cum += c
		bucket(leLabels[i], cum)
		prevEmitted = true
	}
	bucket("+Inf", s.Count)
	b = AppendSample(b, name+"_sum", labels, s.Sum)
	b = append(b, name...)
	b = append(b, "_count"...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, s.Count, 10)
	return append(b, '\n')
}

// QuantileFromBuckets estimates the q-quantile from parsed cumulative
// histogram buckets — the scrape-side counterpart of Snapshot.Quantile,
// used by loadgen on a target's /metrics output. les must be ascending
// upper edges with cumulative counts cums (the +Inf bucket last, its le
// math.Inf(1)); interpolation within the holding bucket is linear.
func QuantileFromBuckets(les []float64, cums []uint64, q float64) float64 {
	if len(les) == 0 || len(les) != len(cums) {
		return 0
	}
	total := cums[len(cums)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var prevCum uint64
	var prevLE float64
	for i, cum := range cums {
		if float64(cum) >= rank && cum > prevCum {
			hi := les[i]
			if i == len(les)-1 && len(les) > 1 {
				// +Inf bucket: report the last finite edge.
				return prevLE
			}
			frac := (rank - float64(prevCum)) / float64(cum-prevCum)
			if frac < 0 {
				frac = 0
			}
			return prevLE + (hi-prevLE)*frac
		}
		prevCum, prevLE = cum, les[i]
	}
	return prevLE
}
