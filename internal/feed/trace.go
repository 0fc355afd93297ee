package feed

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"waterwise/internal/energy"
	"waterwise/internal/units"
)

// TraceVersion is the schema version this package reads and writes.
const TraceVersion = 1

// Interpolation modes of a replay trace.
const (
	// InterpHold serves the newest sample at or before the queried
	// instant — the hourly-hold semantics of the synthetic series, and
	// the mode a recorded synthetic run must use to replay
	// decision-for-decision. The default.
	InterpHold = "hold"
	// InterpLinear blends the surrounding samples linearly (mix shares
	// componentwise — a convex combination of normalized mixes stays
	// normalized — and wet-bulb scalar; PUE/WSF overrides still hold).
	// For sub-hourly real-world captures where holding would staircase.
	InterpLinear = "linear"
)

// Trace is the serialized replay feed: a schema version, an interpolation
// mode, and one time-sorted sample series per region. It is the wire form
// of what Record captures and what NewReplay serves; ReadTrace/WriteTrace
// move it through JSON or CSV losslessly (floats round-trip bit-exact in
// both encodings).
type Trace struct {
	// Version is the schema version (TraceVersion).
	Version int `json:"version"`
	// Interp is the interpolation mode: InterpHold (also the meaning of
	// empty) or InterpLinear.
	Interp string `json:"interp,omitempty"`
	// Regions holds one sample series per region key.
	Regions []RegionTrace `json:"regions"`
}

// RegionTrace is one region's recorded sample series.
type RegionTrace struct {
	// Key is the region key (the string form of region.ID).
	Key string `json:"key"`
	// Samples are the readings, in strictly ascending time order.
	Samples []TraceSample `json:"samples"`
}

// TraceSample is one serialized reading. Mix shares are keyed by energy
// source name ("hydro", "coal", ...); absent sources have share 0. A nil
// PUE/WSF means "no override: the region's static value applies".
type TraceSample struct {
	// Time is the instant the reading describes.
	Time time.Time `json:"t"`
	// Mix is the normalized energy mix by source name; shares must be
	// finite, non-negative, and sum to 1 (±1e-6).
	Mix map[string]float64 `json:"mix"`
	// WetBulbC is the wet-bulb temperature in °C.
	WetBulbC float64 `json:"wet_bulb_c"`
	// PUE optionally overrides the region's static PUE (must be > 0).
	PUE *float64 `json:"pue,omitempty"`
	// WSF optionally overrides the region's static water scarcity factor
	// (must be >= 0).
	WSF *float64 `json:"wsf,omitempty"`
}

// sourceByName maps energy source names back to sources for decoding.
var sourceByName = func() map[string]energy.Source {
	m := make(map[string]energy.Source, len(energy.AllSources()))
	for _, s := range energy.AllSources() {
		m[s.String()] = s
	}
	return m
}()

// toTraceSample serializes a Sample (nonzero shares only, overrides as
// pointers).
func toTraceSample(s Sample) TraceSample {
	ts := TraceSample{Time: s.Time, WetBulbC: float64(s.WetBulb), Mix: make(map[string]float64)}
	for _, src := range energy.AllSources() {
		if v := s.Mix[src]; v != 0 {
			ts.Mix[src.String()] = v
		}
	}
	if s.PUE > 0 {
		pue := s.PUE
		ts.PUE = &pue
	}
	if s.WSF >= 0 {
		wsf := s.WSF
		ts.WSF = &wsf
	}
	return ts
}

// toSample deserializes a TraceSample; the caller has already validated it.
func toSample(ts TraceSample) Sample {
	s := Sample{Time: ts.Time, WetBulb: units.Celsius(ts.WetBulbC), WSF: UnsetWSF}
	for name, v := range ts.Mix {
		s.Mix[sourceByName[name]] = v
	}
	if ts.PUE != nil {
		s.PUE = *ts.PUE
	}
	if ts.WSF != nil {
		s.WSF = *ts.WSF
	}
	return s
}

// Validate checks the trace against the schema: supported version and
// interpolation mode, at least one region, unique non-empty keys of
// printable UTF-8, at least one sample per region in strictly ascending
// time order within years 0000-9999 UTC, known source names, finite
// non-negative shares summing to 1 (±1e-6), finite wet-bulb readings, and
// positive/non-negative override values.
func (tr Trace) Validate() error {
	if tr.Version != TraceVersion {
		return fmt.Errorf("feed: trace version %d, this build reads version %d", tr.Version, TraceVersion)
	}
	switch tr.Interp {
	case "", InterpHold, InterpLinear:
	default:
		return fmt.Errorf("feed: unknown interpolation mode %q", tr.Interp)
	}
	if len(tr.Regions) == 0 {
		return fmt.Errorf("feed: trace has no regions")
	}
	seen := make(map[string]bool, len(tr.Regions))
	for _, rt := range tr.Regions {
		if rt.Key == "" {
			return fmt.Errorf("feed: trace region with empty key")
		}
		if !utf8.ValidString(rt.Key) || strings.IndexFunc(rt.Key, unicode.IsControl) >= 0 {
			// CSV reads "\r\n" inside a quoted field back as "\n", and JSON
			// replaces invalid UTF-8: such a key would not survive a round trip.
			return fmt.Errorf("feed: trace region key %q is not printable UTF-8", rt.Key)
		}
		if seen[rt.Key] {
			return fmt.Errorf("feed: trace region %q appears twice", rt.Key)
		}
		seen[rt.Key] = true
		if len(rt.Samples) == 0 {
			return fmt.Errorf("feed: trace region %q has no samples", rt.Key)
		}
		for i, ts := range rt.Samples {
			if i > 0 && !rt.Samples[i-1].Time.Before(ts.Time) {
				return fmt.Errorf("feed: trace region %q samples out of order at index %d (%v after %v)",
					rt.Key, i, ts.Time, rt.Samples[i-1].Time)
			}
			if err := validateSample(ts); err != nil {
				return fmt.Errorf("feed: trace region %q sample %d (%v): %w", rt.Key, i, ts.Time, err)
			}
		}
	}
	return nil
}

func validateSample(ts TraceSample) error {
	if y := ts.Time.UTC().Year(); y < 0 || y > 9999 {
		// Both encodings carry four-digit years only (CSV writes UTC).
		return fmt.Errorf("time %v is outside years 0000-9999 UTC", ts.Time)
	}
	for name := range ts.Mix {
		if _, ok := sourceByName[name]; !ok {
			return fmt.Errorf("unknown energy source %q", name)
		}
	}
	// Sum in the fixed source order: floating-point addition is not
	// associative, so a map-order sum of shares at the ±1e-6 edge could
	// pass on one call and fail on the next.
	total := 0.0
	for _, src := range energy.AllSources() {
		name := src.String()
		v, ok := ts.Mix[name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("source %q share %g is not a finite non-negative number", name, v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("mix shares sum to %.7f, want 1", total)
	}
	if math.IsNaN(ts.WetBulbC) || math.IsInf(ts.WetBulbC, 0) {
		return fmt.Errorf("wet-bulb %g is not finite", ts.WetBulbC)
	}
	if ts.PUE != nil && !(*ts.PUE > 0 && !math.IsInf(*ts.PUE, 0)) {
		return fmt.Errorf("pue override %g is not positive and finite", *ts.PUE)
	}
	if ts.WSF != nil && !(*ts.WSF >= 0 && !math.IsInf(*ts.WSF, 0)) {
		return fmt.Errorf("wsf override %g is not non-negative and finite", *ts.WSF)
	}
	return nil
}

// Span returns the earliest sample instant across all regions and the
// hour count that covers every sample ([start, start+hours) contains each
// one) — how the facade sizes an Environment around a replay trace.
func (tr Trace) Span() (start time.Time, hours int) {
	var end time.Time
	for _, rt := range tr.Regions {
		if len(rt.Samples) == 0 {
			continue
		}
		if first := rt.Samples[0].Time; start.IsZero() || first.Before(start) {
			start = first
		}
		if last := rt.Samples[len(rt.Samples)-1].Time; last.After(end) {
			end = last
		}
	}
	if start.IsZero() {
		return time.Time{}, 0
	}
	return start, int(end.Sub(start)/time.Hour) + 1
}

// Record samples the provider hourly over [start, start+hours) for the
// given region keys and returns the trace that replays it: with the
// default hold interpolation, NewReplay over the result answers At
// bit-identically to p at every instant of the span — the property the
// record→replay round-trip tests pin down. This is what waterwised
// -record writes.
//
// Only deterministic providers (ForecastHorizon 0) can be recorded: a
// provider that forecasts — Live — answers instant queries from its
// current cache, not from a covered span, so hourly resampling would
// fabricate a flat series; capturing a live feed means polling it as
// wall time passes, which is a different tool.
func Record(p Provider, keys []string, start time.Time, hours int) (Trace, error) {
	if hours <= 0 {
		return Trace{}, fmt.Errorf("feed: record needs a positive horizon, got %d hours", hours)
	}
	if p.ForecastHorizon() > 0 {
		return Trace{}, fmt.Errorf("feed: cannot record the %s provider: it serves cached/predicted readings, not a covered span — every sampled hour would repeat the current value", p.Name())
	}
	if len(keys) == 0 {
		keys = p.Regions()
	}
	tr := Trace{Version: TraceVersion, Interp: InterpHold}
	for _, key := range keys {
		rt := RegionTrace{Key: key, Samples: make([]TraceSample, 0, hours)}
		for h := 0; h < hours; h++ {
			s, err := p.At(key, start.Add(time.Duration(h)*time.Hour))
			if err != nil {
				return Trace{}, fmt.Errorf("feed: recording %q hour %d: %w", key, h, err)
			}
			ts := toTraceSample(s)
			ts.Time = start.Add(time.Duration(h) * time.Hour)
			rt.Samples = append(rt.Samples, ts)
		}
		tr.Regions = append(tr.Regions, rt)
	}
	return tr, nil
}

// Format identifies a trace file encoding.
type Format string

// The supported trace encodings.
const (
	// FormatJSON is the canonical schema: one Trace document.
	FormatJSON Format = "json"
	// FormatCSV is the flat row-per-sample form (header row, one line
	// per region-instant); it cannot carry an interpolation mode, so CSV
	// traces always replay with hold semantics.
	FormatCSV Format = "csv"
)

// FormatForPath picks the encoding from a file extension (".json" or
// ".csv", case-insensitive).
func FormatForPath(path string) (Format, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return FormatJSON, nil
	case ".csv":
		return FormatCSV, nil
	default:
		return "", fmt.Errorf("feed: cannot infer trace format from %q (want .json or .csv)", path)
	}
}

// WriteTrace encodes the trace to w in the given format. The trace is
// validated first, so a written file always reads back — and reads back
// meaning the same thing: a linear-interpolation trace is refused CSV
// encoding (the flat form cannot carry the mode and would silently
// replay with hold semantics).
func WriteTrace(w io.Writer, tr Trace, format Format) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	if format == FormatCSV && tr.Interp == InterpLinear {
		return fmt.Errorf("feed: CSV cannot carry the %s interpolation mode (it would read back as %s); write JSON instead", InterpLinear, InterpHold)
	}
	switch format {
	case FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(tr)
	case FormatCSV:
		return writeCSV(w, tr)
	default:
		return fmt.Errorf("feed: unknown trace format %q", format)
	}
}

// ReadTrace decodes and validates a trace from r in the given format.
func ReadTrace(r io.Reader, format Format) (Trace, error) {
	var tr Trace
	var err error
	switch format {
	case FormatJSON:
		err = json.NewDecoder(r).Decode(&tr)
		if err != nil {
			err = fmt.Errorf("feed: decoding trace JSON: %w", err)
		}
	case FormatCSV:
		tr, err = readCSV(r)
	default:
		return Trace{}, fmt.Errorf("feed: unknown trace format %q", format)
	}
	if err != nil {
		return Trace{}, err
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// WriteTraceFile writes the trace to path, picking the format from the
// extension.
func WriteTraceFile(path string, tr Trace) error {
	format, err := FormatForPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, tr, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads and validates the trace at path, picking the format
// from the extension.
func ReadTraceFile(path string) (Trace, error) {
	format, err := FormatForPath(path)
	if err != nil {
		return Trace{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, err
	}
	defer f.Close()
	return ReadTrace(f, format)
}

// csvHeader is the fixed CSV column set: identity, scalars, then one
// column per energy source in Fig. 1 order. Empty pue/wsf cells mean "no
// override".
func csvHeader() []string {
	h := []string{"time", "region", "wet_bulb_c", "pue", "wsf"}
	for _, s := range energy.AllSources() {
		h = append(h, s.String())
	}
	return h
}

// fmtFloat renders a float with the shortest representation that parses
// back bit-exact, so CSV traces round-trip losslessly like JSON ones.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeCSV(w io.Writer, tr Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return err
	}
	for _, rt := range tr.Regions {
		for _, ts := range rt.Samples {
			row := []string{ts.Time.UTC().Format(time.RFC3339Nano), rt.Key, fmtFloat(ts.WetBulbC), "", ""}
			if ts.PUE != nil {
				row[3] = fmtFloat(*ts.PUE)
			}
			if ts.WSF != nil {
				row[4] = fmtFloat(*ts.WSF)
			}
			for _, s := range energy.AllSources() {
				row = append(row, fmtFloat(ts.Mix[s.String()]))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func readCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return Trace{}, fmt.Errorf("feed: reading trace CSV header: %w", err)
	}
	want := csvHeader()
	if len(header) != len(want) {
		return Trace{}, fmt.Errorf("feed: trace CSV header has %d columns, want %d (%v)", len(header), len(want), want)
	}
	for i, col := range want {
		if strings.TrimSpace(header[i]) != col {
			return Trace{}, fmt.Errorf("feed: trace CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	byKey := make(map[string]*RegionTrace)
	var order []string
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return Trace{}, fmt.Errorf("feed: trace CSV line %d: %w", line, err)
		}
		at, err := time.Parse(time.RFC3339Nano, row[0])
		if err != nil {
			return Trace{}, fmt.Errorf("feed: trace CSV line %d: bad time %q: %w", line, row[0], err)
		}
		key := row[1]
		ts := TraceSample{Time: at, Mix: make(map[string]float64)}
		if ts.WetBulbC, err = strconv.ParseFloat(row[2], 64); err != nil {
			return Trace{}, fmt.Errorf("feed: trace CSV line %d: bad wet_bulb_c %q: %w", line, row[2], err)
		}
		if row[3] != "" {
			pue, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return Trace{}, fmt.Errorf("feed: trace CSV line %d: bad pue %q: %w", line, row[3], err)
			}
			ts.PUE = &pue
		}
		if row[4] != "" {
			wsf, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				return Trace{}, fmt.Errorf("feed: trace CSV line %d: bad wsf %q: %w", line, row[4], err)
			}
			ts.WSF = &wsf
		}
		for i, s := range energy.AllSources() {
			v, err := strconv.ParseFloat(row[5+i], 64)
			if err != nil {
				return Trace{}, fmt.Errorf("feed: trace CSV line %d: bad %s share %q: %w", line, s, row[5+i], err)
			}
			if v != 0 || math.Signbit(v) {
				ts.Mix[s.String()] = v // an explicit -0 share keeps its sign
			}
		}
		rt := byKey[key]
		if rt == nil {
			rt = &RegionTrace{Key: key}
			byKey[key] = rt
			order = append(order, key)
		}
		rt.Samples = append(rt.Samples, ts)
	}
	// Regions keep first-appearance order, matching how writeCSV emits
	// them, so a CSV round trip preserves region order too.
	tr := Trace{Version: TraceVersion}
	for _, key := range order {
		tr.Regions = append(tr.Regions, *byKey[key])
	}
	return tr, nil
}
