package feed

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func recordedTrace(t *testing.T, hours int) (Trace, *Synthetic) {
	t.Helper()
	p, err := NewSynthetic(testSyntheticRegions(), testStart, hours, 21)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(p, nil, testStart, hours)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// assertReplayMatches demands the replay provider answer bit-identically
// to the original at on-grid and off-grid instants, including the clamped
// edges — the property that makes record→replay runs decision-identical.
func assertReplayMatches(t *testing.T, r *Replay, p *Synthetic, hours int) {
	t.Helper()
	offsets := []time.Duration{0, 17 * time.Minute, 59*time.Minute + 59*time.Second}
	for _, key := range p.Regions() {
		for h := -2; h < hours+2; h++ {
			for _, off := range offsets {
				at := testStart.Add(time.Duration(h)*time.Hour + off)
				want, err := p.At(key, at)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.At(key, at)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mix != want.Mix || got.WetBulb != want.WetBulb ||
					got.PUE != want.PUE || got.WSF != want.WSF {
					t.Fatalf("%s at %v: replay sample differs from synthetic\n got %+v\nwant %+v",
						key, at, got, want)
				}
			}
		}
	}
}

// TestRecordReplayRoundTripJSON is the round-trip property at the sample
// level: record a synthetic feed, push it through the JSON wire format,
// and the replay must answer every query bit-identically.
func TestRecordReplayRoundTripJSON(t *testing.T) {
	const hours = 72
	tr, p := recordedTrace(t, hours)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, FormatJSON); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(back)
	if err != nil {
		t.Fatal(err)
	}
	assertReplayMatches(t, r, p, hours)
}

// TestRecordReplayRoundTripCSV repeats the property through the CSV wire
// format (shortest-float rendering must parse back bit-exact).
func TestRecordReplayRoundTripCSV(t *testing.T) {
	const hours = 48
	tr, p := recordedTrace(t, hours)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, FormatCSV); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != len(tr.Regions) {
		t.Fatalf("CSV round trip kept %d regions, want %d", len(back.Regions), len(tr.Regions))
	}
	for i := range tr.Regions {
		if back.Regions[i].Key != tr.Regions[i].Key {
			t.Fatalf("CSV round trip reordered regions: %q at %d, want %q",
				back.Regions[i].Key, i, tr.Regions[i].Key)
		}
	}
	r, err := NewReplay(back)
	if err != nil {
		t.Fatal(err)
	}
	assertReplayMatches(t, r, p, hours)
}

func TestTraceSpan(t *testing.T) {
	tr, _ := recordedTrace(t, 26)
	start, hours := tr.Span()
	if !start.Equal(testStart) || hours != 26 {
		t.Errorf("Span() = %v, %d; want %v, 26", start, hours, testStart)
	}
}

func TestTraceValidation(t *testing.T) {
	good, _ := recordedTrace(t, 4)
	mut := func(f func(*Trace)) Trace {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, good, FormatJSON); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadTrace(&buf, FormatJSON)
		if err != nil {
			t.Fatal(err)
		}
		f(&cp)
		return cp
	}
	cases := []struct {
		name string
		tr   Trace
	}{
		{"bad version", mut(func(tr *Trace) { tr.Version = 99 })},
		{"bad interp", mut(func(tr *Trace) { tr.Interp = "cubic" })},
		{"no regions", mut(func(tr *Trace) { tr.Regions = nil })},
		{"empty key", mut(func(tr *Trace) { tr.Regions[0].Key = "" })},
		{"dup key", mut(func(tr *Trace) { tr.Regions[1].Key = tr.Regions[0].Key })},
		{"control char key", mut(func(tr *Trace) { tr.Regions[0].Key = "zur\r\nich" })},
		{"invalid utf-8 key", mut(func(tr *Trace) { tr.Regions[0].Key = "zur\xffich" })},
		{"year past 9999 UTC", mut(func(tr *Trace) {
			s := tr.Regions[0].Samples
			s[len(s)-1].Time = time.Date(9999, 12, 31, 23, 0, 0, 0, time.FixedZone("", -5*3600))
		})},
		{"no samples", mut(func(tr *Trace) { tr.Regions[0].Samples = nil })},
		{"unsorted", mut(func(tr *Trace) {
			s := tr.Regions[0].Samples
			s[0].Time, s[1].Time = s[1].Time, s[0].Time
		})},
		{"unknown source", mut(func(tr *Trace) { tr.Regions[0].Samples[0].Mix["plutonium"] = 0.1 })},
		{"negative share", mut(func(tr *Trace) {
			m := tr.Regions[0].Samples[0].Mix
			for k := range m {
				m[k] = -m[k]
			}
		})},
		{"bad sum", mut(func(tr *Trace) { tr.Regions[0].Samples[0].Mix["coal"] = 5 })},
		{"nan wet bulb", mut(func(tr *Trace) { tr.Regions[0].Samples[0].WetBulbC = math.NaN() })},
		{"bad pue", mut(func(tr *Trace) {
			pue := -1.0
			tr.Regions[0].Samples[0].PUE = &pue
		})},
		{"bad wsf", mut(func(tr *Trace) {
			wsf := math.Inf(1)
			tr.Regions[0].Samples[0].WSF = &wsf
		})},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := NewReplay(c.tr); err == nil {
			t.Errorf("%s: NewReplay accepted", c.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("recorded trace rejected: %v", err)
	}
}

func TestReplayLinearInterpolation(t *testing.T) {
	pue := 1.3
	tr := Trace{
		Version: TraceVersion,
		Interp:  InterpLinear,
		Regions: []RegionTrace{{
			Key: "r",
			Samples: []TraceSample{
				{Time: testStart, Mix: map[string]float64{"coal": 1}, WetBulbC: 10, PUE: &pue},
				{Time: testStart.Add(time.Hour), Mix: map[string]float64{"coal": 0.5, "wind": 0.5}, WetBulbC: 20},
			},
		}},
	}
	r, err := NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Interp() != InterpLinear {
		t.Fatalf("Interp() = %q", r.Interp())
	}
	s, err := r.At("r", testStart.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s.WetBulb)-15) > 1e-12 {
		t.Errorf("midpoint wet-bulb %g, want 15", float64(s.WetBulb))
	}
	if math.Abs(s.Mix[sourceByName["coal"]]-0.75) > 1e-12 ||
		math.Abs(s.Mix[sourceByName["wind"]]-0.25) > 1e-12 {
		t.Errorf("midpoint mix = %v, want coal 0.75 / wind 0.25", s.Mix)
	}
	if s.PUE != 1.3 {
		t.Errorf("midpoint PUE %g: overrides must hold from the left sample", s.PUE)
	}
	// Outside the span both modes clamp.
	if s, _ := r.At("r", testStart.Add(-time.Hour)); float64(s.WetBulb) != 10 {
		t.Errorf("pre-span sample not clamped to first: %g", float64(s.WetBulb))
	}
	if s, _ := r.At("r", testStart.Add(5*time.Hour)); float64(s.WetBulb) != 20 {
		t.Errorf("post-span sample not clamped to last: %g", float64(s.WetBulb))
	}
}

// forecastingProvider is a stub non-deterministic provider (nonzero
// forecast horizon), standing in for Live in the Record gate test.
type forecastingProvider struct{ Synthetic }

func (*forecastingProvider) Name() string                   { return "stub-live" }
func (*forecastingProvider) ForecastHorizon() time.Duration { return time.Hour }

// TestRecordRejectsForecastingProvider: a provider that serves
// cached/predicted readings (Live) cannot be recorded by instant
// sampling — every sampled hour would repeat the current cache line,
// producing a flat trace that silently misrepresents the world.
func TestRecordRejectsForecastingProvider(t *testing.T) {
	p, err := NewSynthetic(testSyntheticRegions(), testStart, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Record(&forecastingProvider{*p}, nil, testStart, 24); err == nil {
		t.Error("recording a forecasting provider accepted")
	}
}

// TestWriteTraceRefusesLossyCSV: CSV cannot carry the linear
// interpolation mode, so writing a linear trace to CSV must fail
// instead of silently reading back with hold semantics.
func TestWriteTraceRefusesLossyCSV(t *testing.T) {
	tr, _ := recordedTrace(t, 4)
	tr.Interp = InterpLinear
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, FormatCSV); err == nil {
		t.Error("linear-interp trace written to CSV without error")
	}
	if err := WriteTrace(&buf, tr, FormatJSON); err != nil {
		t.Errorf("linear-interp trace rejected by JSON: %v", err)
	}
}

func TestFormatForPath(t *testing.T) {
	if f, err := FormatForPath("/tmp/x.JSON"); err != nil || f != FormatJSON {
		t.Errorf("JSON extension: %v, %v", f, err)
	}
	if f, err := FormatForPath("feed.csv"); err != nil || f != FormatCSV {
		t.Errorf("CSV extension: %v, %v", f, err)
	}
	if _, err := FormatForPath("feed.parquet"); err == nil {
		t.Error("unknown extension accepted")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json"), FormatJSON); err == nil {
		t.Error("garbage JSON accepted")
	}
	if _, err := ReadTrace(strings.NewReader("a,b\n1,2\n"), FormatCSV); err == nil {
		t.Error("bad CSV header accepted")
	}
}

// TestMixSumVerdictIsStable: shares whose sum sits at the ±1e-6 edge must
// get the same verdict on every call. Summed in map-iteration order, this
// sample was accepted on some calls and rejected on others.
func TestMixSumVerdictIsStable(t *testing.T) {
	const doc = `{"version":1,"regions":[{"key":"edge","samples":[{"t":"2023-07-01T00:00:00Z",` +
		`"mix":{"coal":0.726291,"gas":0.1815722,"hydro":0.0212711,"oil":0.053911,"wind":0.0169537},"wet_bulb_c":20}]}]}`
	_, first := ReadTrace(strings.NewReader(doc), FormatJSON)
	for i := 0; i < 200; i++ {
		tr, err := ReadTrace(strings.NewReader(doc), FormatJSON)
		if (err == nil) != (first == nil) {
			t.Fatalf("call %d: verdict %v, first call %v", i, err, first)
		}
		if err == nil {
			if _, err := NewReplay(tr); err != nil {
				t.Fatalf("call %d: ReadTrace accepted, NewReplay rejected: %v", i, err)
			}
		}
	}
}

// TestCSVKeepsNegativeZeroShare: traces round-trip bit-exact in both
// encodings, so an explicit -0 share read from JSON must survive CSV too.
func TestCSVKeepsNegativeZeroShare(t *testing.T) {
	tr, _ := recordedTrace(t, 2)
	tr.Regions[0].Samples[0].Mix["oil"] = math.Copysign(0, -1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, FormatCSV); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTrace(tr, back); err != nil {
		t.Fatal(err)
	}
}
