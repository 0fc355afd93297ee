package feed

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"waterwise/internal/energy"
)

var update = flag.Bool("update", false, "rewrite the committed FuzzReadTrace seed corpus")

// traceFuzzSeed is one FuzzReadTrace input: encoded trace bytes and
// whether they are CSV (otherwise JSON).
type traceFuzzSeed struct {
	data []byte
	csv  bool
}

// traceFuzzSeeds records a short synthetic feed and writes it in both
// encodings, plus the JSON form with linear interpolation (which CSV
// cannot carry), so the fuzzer starts from well-formed traces of every
// shape ReadTrace accepts.
func traceFuzzSeeds(tb testing.TB) []traceFuzzSeed {
	p, err := NewSynthetic(testSyntheticRegions(), testStart, 3, 21)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := Record(p, nil, testStart, 3)
	if err != nil {
		tb.Fatal(err)
	}
	linear := tr
	linear.Interp = InterpLinear
	var seeds []traceFuzzSeed
	for _, c := range []struct {
		tr     Trace
		format Format
	}{{tr, FormatJSON}, {tr, FormatCSV}, {linear, FormatJSON}} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, c.tr, c.format); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, traceFuzzSeed{buf.Bytes(), c.format == FormatCSV})
	}
	return seeds
}

// TestTraceFuzzCorpusCommitted keeps testdata/fuzz/FuzzReadTrace in sync
// with traceFuzzSeeds: -update rewrites the corpus files in the go-fuzz v1
// encoding, and the plain run fails if a seed is missing or stale, so
// `go test -fuzz` and CI always start from the committed inputs.
func TestTraceFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadTrace")
	for i, seed := range traceFuzzSeeds(t) {
		name := fmt.Sprintf("seed_%02d", i)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nbool(%t)\n", strconv.Quote(string(seed.data)), seed.csv)
		path := filepath.Join(dir, name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fuzz seed (run with -update): %v", err)
		}
		if string(got) != body {
			t.Fatalf("fuzz seed %s out of date (run with -update)", name)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace decoders behind
// waterwised -feed replay:<file>. The invariants: never panic; a trace
// ReadTrace accepts, NewReplay accepts too; writing an accepted trace and
// reading it back gives the same trace (in JSON always, in CSV unless it
// interpolates linearly); and the replay answers at the span's start and
// midpoint.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range traceFuzzSeeds(f) {
		f.Add(seed.data, seed.csv)
	}
	f.Fuzz(func(t *testing.T, data []byte, csv bool) {
		format := FormatJSON
		if csv {
			format = FormatCSV
		}
		tr, err := ReadTrace(bytes.NewReader(data), format)
		if err != nil {
			return
		}
		r, err := NewReplay(tr)
		if err != nil {
			t.Fatalf("ReadTrace accepted a trace NewReplay rejects: %v", err)
		}
		for _, out := range []Format{FormatJSON, FormatCSV} {
			if out == FormatCSV && tr.Interp == InterpLinear {
				continue
			}
			var buf bytes.Buffer
			if err := WriteTrace(&buf, tr, out); err != nil {
				t.Fatalf("WriteTrace %s refused an accepted trace: %v", out, err)
			}
			back, err := ReadTrace(&buf, out)
			if err != nil {
				t.Fatalf("%s round trip: written trace does not read back: %v", out, err)
			}
			if err := sameTrace(tr, back); err != nil {
				t.Fatalf("%s round trip: %v", out, err)
			}
		}
		start, hours := tr.Span()
		for _, rt := range tr.Regions {
			for _, at := range []time.Time{start, start.Add(time.Duration(hours/2) * time.Hour)} {
				if _, err := r.At(rt.Key, at); err != nil {
					t.Fatalf("At(%q, %v): %v", rt.Key, at, err)
				}
			}
		}
	})
}

// sameTrace reports how b differs from a: interpolation mode (empty means
// hold), region keys and order, sample instants (by Equal), and every
// float bit for bit — mix shares per source, an absent source being 0.
func sameTrace(a, b Trace) error {
	interp := func(tr Trace) string {
		if tr.Interp == "" {
			return InterpHold
		}
		return tr.Interp
	}
	if a.Version != b.Version || interp(a) != interp(b) {
		return fmt.Errorf("header v%d/%q became v%d/%q", a.Version, a.Interp, b.Version, b.Interp)
	}
	if len(a.Regions) != len(b.Regions) {
		return fmt.Errorf("%d regions became %d", len(a.Regions), len(b.Regions))
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameOpt := func(x, y *float64) bool { return (x == nil) == (y == nil) && (x == nil || sameBits(*x, *y)) }
	for i, ra := range a.Regions {
		rb := b.Regions[i]
		if ra.Key != rb.Key || len(ra.Samples) != len(rb.Samples) {
			return fmt.Errorf("region %d: %q with %d samples became %q with %d", i, ra.Key, len(ra.Samples), rb.Key, len(rb.Samples))
		}
		for j, sa := range ra.Samples {
			sb := rb.Samples[j]
			if !sa.Time.Equal(sb.Time) || !sameBits(sa.WetBulbC, sb.WetBulbC) || !sameOpt(sa.PUE, sb.PUE) || !sameOpt(sa.WSF, sb.WSF) {
				return fmt.Errorf("region %q sample %d: %+v became %+v", ra.Key, j, sa, sb)
			}
			for _, src := range energy.AllSources() {
				if x, y := sa.Mix[src.String()], sb.Mix[src.String()]; !sameBits(x, y) {
					return fmt.Errorf("region %q sample %d: %s share %v became %v", ra.Key, j, src, x, y)
				}
			}
		}
	}
	return nil
}
