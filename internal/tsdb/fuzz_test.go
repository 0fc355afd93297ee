package tsdb

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed fuzz seed corpus")

// keyFuzzSeeds are series references of every shape /v1/query receives:
// canonical keys as the recorder stores them (quoted escapes, digit-bearing
// label names that sort before their prefix), and references Key never
// renders (unsorted, empty, duplicated, trailing comma, non-canonical
// quoting) or that do not parse at all.
var keyFuzzSeeds = []string{
	`waterwise_decisions_total`,
	`waterwise_decisions_total{shard="0"}`,
	`waterwise_decision_latency_seconds_bucket{le="+Inf",shard="1"}`,
	`waterwise_build_info{gomaxprocs="2",goversion="go1.24",version="dev"}`,
	Key("m", map[string]string{"a": "x\"y\\z"}),
	Key("m", map[string]string{"a": "1", "a1": "2", "b": "é\x00\t,{}="}),
	`m{b="1",a="2"}`,
	`m{}`,
	`m{a="1",}`,
	`m{a="1",a="2"}`,
	`m{a="\x41"}`,
	`m{a=1}`,
	`m{a="1"`,
	`m{a="\q"}`,
}

// TestKeyFuzzCorpusCommitted keeps testdata/fuzz/FuzzSplitKey in step
// with keyFuzzSeeds; regenerate with -update.
func TestKeyFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSplitKey")
	for i, seed := range keyFuzzSeeds {
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

// FuzzSplitKey checks the series-key grammar both ways: SplitKey inverts
// Key exactly (Key(SplitKey(s)) == s for every s it accepts), and every
// reference /v1/query parses canonicalizes to a key SplitKey reads back
// to the same name and labels.
func FuzzSplitKey(f *testing.F) {
	for _, seed := range keyFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if name, labels, err := SplitKey(s); err == nil {
			if k := Key(name, labels); k != s {
				t.Fatalf("SplitKey(%q) accepted, but Key renders it as %q", s, k)
			}
		}
		name, labels, err := splitRef(s)
		if err != nil {
			return
		}
		k := Key(name, labels)
		name2, labels2, err := SplitKey(k)
		if err != nil {
			t.Fatalf("Key(splitRef(%q)) = %q does not parse back: %v", s, k, err)
		}
		if name2 != name || !maps.Equal(labels2, labels) {
			t.Fatalf("reference %q: %q %v through Key/SplitKey became %q %v", s, name, labels, name2, labels2)
		}
	})
}
