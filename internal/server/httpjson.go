package server

import (
	"bytes"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"waterwise/internal/region"
	"waterwise/internal/wire"
)

// The HTTP data plane's JSON without encoding/json's reflection: a scanner
// for the POST /v1/jobs body clients send, and an appender for the
// GET /v1/decisions page. encoding/json stays the definition of both. The
// scanner declines any body beyond its subset (plain ASCII strings, JSON
// numbers, the eight exact-case JobSpec keys each at most once), and the
// appender declines any value encoding/json would escape or refuse; the
// handlers then run encoding/json exactly as before. So every result
// either path gives is one encoding/json gives, and every error message is
// encoding/json's.

// decisionJSONSize is about the encoded size of one decision, for sizing
// a page's buffer.
const decisionJSONSize = 340

// scanJobSpecs decodes body, a JSON array of JobSpec objects or one object,
// to what json.Unmarshal gives, or reports false where the body is not
// valid JSON or holds anything outside the scanner's subset: escapes,
// non-ASCII bytes, null, an unknown, case-folded or repeated key, a
// non-integer or out-of-range id, an out-of-range float, or trailing bytes.
func scanJobSpecs(body []byte) ([]JobSpec, bool) {
	d := specScanner{b: body}
	d.space()
	if !d.next('[') {
		specs := make([]JobSpec, 1)
		return specs, d.object(&specs[0]) && d.end()
	}
	// Every spec opens a brace, so without braces inside strings this is
	// the exact length. The cap keeps braces in a hostile string from
	// reserving more than about 1.5 times the body; past it, append grows.
	specs := make([]JobSpec, 0, min(bytes.Count(body, []byte{'{'}), len(body)/64+1))
	d.space()
	if !d.next(']') {
		for {
			specs = append(specs, JobSpec{})
			if !d.object(&specs[len(specs)-1]) {
				return nil, false
			}
			d.space()
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return nil, false
			}
			d.space()
		}
	}
	return specs, d.end()
}

// specScanner is scanJobSpecs' cursor over the body.
type specScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (d *specScanner) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (d *specScanner) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *specScanner) end() bool {
	d.space()
	return d.i == len(d.b)
}

// object decodes one JobSpec object into sp, which must be zero.
func (d *specScanner) object(sp *JobSpec) bool {
	if !d.next('{') {
		return false
	}
	d.space()
	if d.next('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.space()
		if !d.next(':') {
			return false
		}
		d.space()
		bit, ok := d.field(sp, key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.space()
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
		d.space()
	}
}

// field decodes key's value into sp and returns key's bit of the set of
// keys an object has used.
func (d *specScanner) field(sp *JobSpec, key []byte) (uint8, bool) {
	switch string(key) {
	case "id":
		lit, integer := d.number()
		if !integer {
			return 0, false
		}
		n, err := strconv.Atoi(string(lit))
		if err != nil {
			return 0, false
		}
		sp.ID = &n
		return 1 << 0, true
	case "benchmark":
		name, ok := d.str()
		sp.Benchmark = string(name)
		return 1 << 1, ok
	case "home":
		name, ok := d.str()
		sp.Home = region.ID(name)
		return 1 << 2, ok
	case "submit":
		start := d.i
		if _, ok := d.str(); !ok {
			return 0, false
		}
		// The quoted bytes, as encoding/json hands them to the method.
		return 1 << 3, sp.Submit.UnmarshalJSON(d.b[start:d.i]) == nil
	case "duration_s":
		return 1 << 4, d.float(&sp.DurationSec)
	case "energy_kwh":
		return 1 << 5, d.float(&sp.EnergyKWh)
	case "est_duration_s":
		return 1 << 6, d.float(&sp.EstDurationSec)
	case "est_energy_kwh":
		return 1 << 7, d.float(&sp.EstEnergyKWh)
	}
	return 0, false
}

// str consumes a string of printable ASCII with no escapes and returns
// its contents.
func (d *specScanner) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// number consumes a JSON number and returns its literal, nil if there is
// none, and whether it has neither a fraction nor an exponent.
func (d *specScanner) number() (lit []byte, integer bool) {
	start := d.i
	d.next('-')
	if !d.next('0') && d.digits() == 0 {
		return nil, false
	}
	integer = true
	if d.next('.') {
		if d.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	return d.b[start:d.i], integer
}

// digits consumes a run of decimal digits and returns its length.
func (d *specScanner) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// float consumes a JSON number into f, as encoding/json parses a float64.
func (d *specScanner) float(f *float64) bool {
	lit, _ := d.number()
	if lit == nil {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*f = v
	return err == nil
}

// appendAcceptedJSON appends the JSON encoding of SubmitResponse{Accepted:
// ids} with ids non-nil, as json.Encoder writes it.
func appendAcceptedJSON(dst []byte, ids []int) []byte {
	dst = append(dst, `{"accepted":[`...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, "]}\n"...)
}

// appendDecisionsJSON appends the GET /v1/decisions body for page, the
// merged decisions after cursor since of a service whose shard partitions
// are parts, straight from their records: byte for byte what
// json.NewEncoder(w).Encode(DecisionsResponse{...}) writes for the same
// page, trailing newline included. It reports false where encoding/json
// would escape a region name or refuse a NaN or infinite footprint; the
// bytes it appended are then to be dropped. Every instant a record holds
// lies in the years 1677–2262 or is the zero time, so none is outside the
// 0–9999 that time.Time.MarshalJSON allows.
func appendDecisionsJSON(dst []byte, parts [][]region.ID, since uint64, page []mergedRecord) ([]byte, bool) {
	dst = append(dst, `{"decisions":[`...)
	next := since
	for i := range page {
		seq, d := page[i].seq, &page[i].d
		if i > 0 {
			dst = append(dst, ',')
		}
		next = seq
		reg := parts[d.shard][d.region]
		if !plainJSONString(reg) {
			return dst, false
		}
		var ok bool
		dst = strconv.AppendUint(append(dst, `{"seq":`...), seq, 10)
		dst = strconv.AppendInt(append(dst, `,"job_id":`...), d.jobID, 10)
		dst = append(append(append(dst, `,"region":"`...), reg...), '"')
		dst = appendInstantJSON(append(dst, `,"round":`...), d.round)
		dst = appendInstantJSON(append(dst, `,"start":`...), d.start)
		dst = appendInstantJSON(append(dst, `,"finish":`...), d.finish)
		if dst, ok = appendFloatJSON(append(dst, `,"carbon_g":`...), d.carbonG); !ok {
			return dst, false
		}
		if dst, ok = appendFloatJSON(append(dst, `,"water_l":`...), d.waterL); !ok {
			return dst, false
		}
		dst = appendInstantJSON(append(dst, `,"decided_wall":`...), d.decidedWall)
		dst = strconv.AppendUint(append(dst, `,"shard":`...), uint64(d.shard), 10)
		dst = strconv.AppendUint(append(dst, `,"shard_seq":`...), d.seq, 10)
		dst = append(dst, '}')
	}
	dst = strconv.AppendUint(append(dst, `],"next":`...), next, 10)
	return append(dst, "}\n"...), true
}

// plainJSONString reports whether encoding/json writes s (HTML escaping
// on, json.Encoder's default) as its bytes between quotes.
func plainJSONString(s region.ID) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendInstantJSON appends the instant a record holds as Unix nanoseconds
// (wire.TimeNone for the zero time) as time.Time.MarshalJSON writes it in
// UTC: quoted RFC 3339 with nanoseconds, trailing zeros dropped.
func appendInstantJSON(dst []byte, nano int64) []byte {
	dst = wire.NanoTime(nano).AppendFormat(append(dst, '"'), time.RFC3339Nano)
	return append(dst, '"')
}

// appendFloatJSON appends f as encoding/json writes a float64, or reports
// false for NaN and ±Inf, which it refuses.
func appendFloatJSON(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-07 as e-7.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
