package obs

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed fuzz seed corpora")

// The live expositions under testdata/live are /metrics scraped from a
// running waterwised after a loadgen run: server.prom from a single
// durable server with -slo armed, fleet.prom from the same flags with
// -shards 2. Recapture by scraping both again, then rerun
// TestPromFuzzCorpusCommitted with -update.
var liveExpositions = []string{"server.prom", "fleet.prom"}

// promFuzzSeeds cuts the live expositions into seeds: each whole
// exposition, then each of its families (# HELP, # TYPE and the family's
// samples) on its own. Every family block is a valid exposition, so the
// fuzzer starts from small well-formed inputs of every family shape the
// service emits — counters, labeled gauges, shard-labeled histograms.
func promFuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, name := range liveExpositions {
		data, err := os.ReadFile(filepath.Join("testdata", "live", name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
		seeds = append(seeds, familyBlocks(data)...)
	}
	return seeds
}

// familyBlocks regroups an exposition's lines by family, in first-seen
// order. A family's lines need not be contiguous: the fleet gateway
// renders every shard's histograms in turn, so shard 1's samples follow
// all of shard 0's families.
func familyBlocks(data []byte) [][]byte {
	var order []string
	blocks := make(map[string][]byte)
	histogram := make(map[string]bool)
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var name string
		if f := strings.Fields(string(line)); len(f) >= 3 && f[0] == "#" {
			name = f[2]
			histogram[name] = histogram[name] || (f[1] == "TYPE" && len(f) == 4 && f[3] == "histogram")
		} else if i := bytes.IndexAny(line, "{ "); i > 0 {
			name = string(line[:i])
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && histogram[base] {
					name = base
				}
			}
		} else {
			continue
		}
		if _, seen := blocks[name]; !seen {
			order = append(order, name)
		}
		blocks[name] = append(blocks[name], line...)
	}
	out := make([][]byte, len(order))
	for i, name := range order {
		out[i] = blocks[name]
	}
	return out
}

// TestPromFuzzCorpusCommitted keeps testdata/fuzz/FuzzParseProm in sync
// with promFuzzSeeds: -update rewrites the corpus files in the go-fuzz
// v1 encoding, and the plain run fails if a seed is missing or stale, so
// `go test -fuzz` and CI always start from the committed inputs. Every
// seed must also pass the strict lint: they are cut from what the
// service really serves.
func TestPromFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseProm")
	for i, seed := range promFuzzSeeds(t) {
		if err := LintProm(seed); err != nil {
			t.Fatalf("seed %d does not lint: %v", i, err)
		}
		name := fmt.Sprintf("seed_%03d", i)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
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

// FuzzParseProm feeds arbitrary bytes to the strict exposition parser
// behind the recorder's self-scrape and loadgen's remote scrape. The
// invariants: never panic; LintProm never accepts what ParseProm
// rejects; an accepted exposition yields well-formed families — valid
// names, every sampled family documented, no more samples than lines —
// and loadgen's histogram read-out over it does not panic either.
func FuzzParseProm(f *testing.F) {
	for _, seed := range promFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseProm(data)
		lintErr := LintProm(data)
		if err != nil {
			if lintErr == nil {
				t.Fatalf("LintProm accepted an exposition ParseProm rejects: %v", err)
			}
			return
		}
		samples := 0
		for name, fam := range fams {
			if fam.Name != name || !validMetricName(name) {
				t.Fatalf("family keyed %q is named %q", name, fam.Name)
			}
			if len(fam.Samples) > 0 && (fam.Help == "" || fam.Type == "") {
				t.Fatalf("family %s has samples without # HELP and # TYPE", name)
			}
			for _, s := range fam.Samples {
				if !validMetricName(s.Name) {
					t.Fatalf("family %s: sample name %q", name, s.Name)
				}
				for k := range s.Labels {
					if !validLabelName(k) {
						t.Fatalf("family %s: label name %q", name, k)
					}
				}
			}
			samples += len(fam.Samples)
			if fam.Type == "histogram" {
				les, cums := HistogramBuckets(fam, nil)
				if len(les) != len(cums) {
					t.Fatalf("family %s: %d edges, %d counts", name, len(les), len(cums))
				}
				QuantileFromBuckets(les, cums, 0.99)
			}
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; samples > lines {
			t.Fatalf("%d samples from %d lines", samples, lines)
		}
	})
}

// seriesFuzzSeeds are series identities of every shape the flight
// recorder stores and /v1/query receives: identities as the service
// renders them, escaped quotes and backslashes, label names that sort
// before their prefix, and inputs the grammar rejects or reads loosely
// (Go-only escapes, unsorted, empty, trailing comma, duplicated,
// unquoted, unterminated).
var seriesFuzzSeeds = []string{
	`waterwise_decisions_total`,
	`waterwise_decisions_total{shard="0"}`,
	`waterwise_decision_latency_seconds_bucket{le="+Inf",shard="1"}`,
	`waterwise_build_info{gomaxprocs="2",goversion="go1.24",version="dev"}`,
	`m{a="x\"y\\z"}`,
	`m{a1="2",a="1",b="é\x00\t,{}="}`,
	`m{b="1",a="2"}`,
	`m{}`,
	`m{a="1",}`,
	`m{a="1",a="2"}`,
	`m{a="\x41"}`,
	`m{a=1}`,
	`m{a="1"`,
	`m{a="\q"}`,
}

// TestSeriesFuzzCorpusCommitted keeps testdata/fuzz/FuzzParseSeries in
// step with seriesFuzzSeeds; regenerate with -update.
func TestSeriesFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseSeries")
	for i, seed := range seriesFuzzSeeds {
		body := "go test fuzz v1\nstring(" + strconv.Quote(seed) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
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
			t.Fatalf("fuzz seed %s out of date (run with -update)", path)
		}
	}
}

// renderSeries writes a series identity the way an exposition spells it:
// labels in sorted order, values with \\, \" and \n escaped.
func renderSeries(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels))
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		pairs = append(pairs, k+"="+QuoteLabel(labels[k]))
	}
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// FuzzParseSeries checks the one series grammar: ParseSeries never
// panics, and whatever it accepts, rendered back in exposition form,
// parses to the same name and labels.
func FuzzParseSeries(f *testing.F) {
	for _, seed := range seriesFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, labels, err := ParseSeries(s)
		if err != nil {
			return
		}
		out := renderSeries(name, labels)
		name2, labels2, err := ParseSeries(out)
		if err != nil {
			t.Fatalf("ParseSeries(%q) accepted, but its rendering %q does not parse: %v", s, out, err)
		}
		if name2 != name || !maps.Equal(labels2, labels) {
			t.Fatalf("ParseSeries(%q) = %q %v, its rendering %q parses to %q %v", s, name, labels, out, name2, labels2)
		}
	})
}
