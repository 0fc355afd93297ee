package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed fuzz corpus")

// specFuzzSeeds are the bundled specs, byte for byte as shipped.
func specFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	entries, err := bundledFS.ReadDir("specs")
	if err != nil {
		tb.Fatal(err)
	}
	seeds := map[string][]byte{}
	for _, e := range entries {
		b, err := bundledFS.ReadFile("specs/" + e.Name())
		if err != nil {
			tb.Fatal(err)
		}
		seeds[strings.TrimSuffix(e.Name(), ".json")] = b
	}
	return seeds
}

// TestSpecFuzzCorpusCommitted keeps testdata/fuzz/FuzzParseSpec in sync
// with the bundled specs: -update rewrites the corpus files in the go-fuzz
// v1 encoding, and the plain run fails if a seed is missing or stale, so
// `go test -fuzz` and CI always start from the committed inputs.
func TestSpecFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseSpec")
	for name, data := range specFuzzSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
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

// FuzzParseSpec feeds arbitrary bytes to Parse, the decoder behind
// `scenario -spec <file>`. The invariants: never panic, and a spec Parse
// accepts survives json.Marshal → Parse unchanged (defaults applied once
// stay applied, and every field the JSON form carries round-trips).
func FuzzParseSpec(f *testing.F) {
	for _, data := range specFuzzSeeds(f) {
		f.Add(data)
	}
	// Edges the bundled specs never reach: extreme and negative
	// durations, a nanosecond round, a rate at the float limit.
	f.Add([]byte(`{"name":"x","arrival":{"program":"flash","flash_at":-9223372036854775808}}`))
	f.Add([]byte(`{"name":"x","hours":2562047,"round":1,"jobs_per_day":1e308}`))
	f.Add([]byte(`{"name":"x","round":-1,"faults":[{"kind":"feed_throttle","at_round":3,"retry_after":"3s"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("an accepted spec does not marshal: %v", err)
		}
		back, err := Parse(first)
		if err != nil {
			t.Fatalf("a marshaled spec does not parse back: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("spec changed through marshal → Parse:\nbefore: %s\nafter:  %s", first, second)
		}
	})
}
