package obs

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestAppendPromRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Record(math.Exp(rng.Float64()*8 - 8))
	}
	snap := h.Snapshot()
	b := snap.AppendProm(nil, "test_latency_seconds", "A test latency distribution.", "", true)

	fams, err := ParseProm(b)
	if err != nil {
		t.Fatalf("ParseProm rejected our own output: %v\n%s", err, b)
	}
	if err := LintProm(b); err != nil {
		t.Fatalf("LintProm rejected our own output: %v\n%s", err, b)
	}
	fam := fams["test_latency_seconds"]
	if fam == nil {
		t.Fatalf("family missing from parse; got %v", famNames(fams))
	}
	les, cums := HistogramBuckets(fam, nil)
	if len(les) == 0 {
		t.Fatal("no buckets extracted")
	}
	// Cumulative counts must be non-decreasing and end at Count.
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, cums)
		}
	}
	if cums[len(cums)-1] != snap.Count {
		t.Fatalf("+Inf bucket %d != count %d", cums[len(cums)-1], snap.Count)
	}
	// The scrape-side quantile must agree with the in-process one: both
	// interpolate over the same buckets, so they differ only where elision
	// re-anchoring coarsens the lower edge — stay within a bucket width.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		direct := snap.Quantile(q)
		scraped := QuantileFromBuckets(les, cums, q)
		if rel := math.Abs(direct-scraped) / direct; rel > relBucketError {
			t.Errorf("q=%g: direct %g vs scraped %g (rel err %.3f)", q, direct, scraped, rel)
		}
	}
}

func famNames(fams map[string]*PromFamily) []string {
	out := make([]string, 0, len(fams))
	for n := range fams {
		out = append(out, n)
	}
	return out
}

// TestAppendPromSparse exercises the empty-run elision: two isolated
// spikes decades apart must still render a valid cumulative histogram.
func TestAppendPromSparse(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(1e-5)
		h.Record(42)
	}
	snap := h.Snapshot()
	b := snap.AppendProm(nil, "sparse_seconds", "Sparse distribution.", "", true)
	if err := LintProm(b); err != nil {
		t.Fatalf("sparse render fails lint: %v\n%s", err, b)
	}
	fams, err := ParseProm(b)
	if err != nil {
		t.Fatalf("sparse render fails parse: %v", err)
	}
	les, cums := HistogramBuckets(fams["sparse_seconds"], nil)
	// Elision must have dropped the long empty runs: far fewer rendered
	// buckets than the 128 in the scheme.
	if len(les) > 20 {
		t.Errorf("elision ineffective: %d buckets rendered", len(les))
	}
	p50 := QuantileFromBuckets(les, cums, 0.50)
	if p50 <= 0 {
		t.Errorf("sparse p50 = %g", p50)
	}
	// Median of {10×1e-5, 10×42} lands at the low spike.
	if p50 > 1e-3 {
		t.Errorf("sparse p50 = %g, want near 1e-5", p50)
	}
	p99 := QuantileFromBuckets(les, cums, 0.99)
	if p99 < 30 || p99 > 60 {
		t.Errorf("sparse p99 = %g, want near 42", p99)
	}
}

func TestAppendPromLabels(t *testing.T) {
	var h Histogram
	h.Record(0.1)
	snap := h.Snapshot()
	b := snap.AppendProm(nil, "labeled_seconds", "Labeled distribution.", `shard="3"`, true)
	// Second labeled series in the same family, no header repeat.
	b = snap.AppendProm(b, "labeled_seconds", "Labeled distribution.", `shard="7"`, false)
	if err := LintProm(b); err != nil {
		t.Fatalf("labeled render fails lint: %v\n%s", err, b)
	}
	if n := strings.Count(string(b), "# HELP labeled_seconds"); n != 1 {
		t.Fatalf("HELP emitted %d times, want 1", n)
	}
	fams, err := ParseProm(b)
	if err != nil {
		t.Fatal(err)
	}
	fam := fams["labeled_seconds"]
	for _, shard := range []string{"3", "7"} {
		les, cums := HistogramBuckets(fam, map[string]string{"shard": shard})
		if len(les) == 0 || cums[len(cums)-1] != 1 {
			t.Errorf("shard %s: buckets %v cums %v", shard, les, cums)
		}
	}
	// The unlabeled group must be empty — every sample carries a shard.
	if les, _ := HistogramBuckets(fam, nil); len(les) != 0 {
		t.Errorf("unlabeled group unexpectedly non-empty: %v", les)
	}
}

func TestParsePromStrict(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"sample without HELP", "foo_total 3\n"},
		{"TYPE without HELP", "# TYPE foo_total counter\nfoo_total 3\n"},
		{"HELP without TYPE", "# HELP foo_total Docs.\nfoo_total 3\n"},
		{"bad value", "# HELP foo Docs.\n# TYPE foo gauge\nfoo abc\n"},
		{"unbalanced label quote", "# HELP foo Docs.\n# TYPE foo gauge\nfoo{a=\"b} 1\n"},
		{"garbage line", "# HELP foo Docs.\n# TYPE foo gauge\nfoo 1\nnot a metric line!\n"},
	}
	for _, c := range cases {
		if _, err := ParseProm([]byte(c.in)); err == nil {
			t.Errorf("%s: ParseProm accepted invalid exposition:\n%s", c.name, c.in)
		}
	}
	for _, good := range []string{
		"# HELP foo_total Docs.\n# TYPE foo_total counter\nfoo_total 3\n",
		// Two series whose labels differ only in where a comma sits: a
		// value holding `,b=y` is not a second label.
		"# HELP m_total Docs.\n# TYPE m_total counter\nm_total{a=\"x,b=y\"} 1\nm_total{a=\"x\",b=\"y\"} 2\n",
	} {
		if _, err := ParseProm([]byte(good)); err != nil {
			t.Errorf("ParseProm rejected valid exposition: %v\n%s", err, good)
		}
	}
	// The same series twice, labels reordered, is a duplicate.
	dup := "# HELP m_total Docs.\n# TYPE m_total counter\nm_total{a=\"x\",b=\"y\"} 1\nm_total{b=\"y\",a=\"x\"} 2\n"
	if _, err := ParseProm([]byte(dup)); err == nil || !strings.Contains(err.Error(), "duplicate series") {
		t.Errorf("ParseProm on a reordered duplicate: %v", err)
	}
}

// TestParseSeriesRoundTrip pins the series grammar on identities of every
// shape the service renders, and on what it must reject.
func TestParseSeriesRoundTrip(t *testing.T) {
	for _, c := range []struct {
		id     string
		name   string
		labels map[string]string
	}{
		{`plain_total`, "plain_total", nil},
		{`labeled_total{shard="3",region="us-east"}`, "labeled_total", map[string]string{"shard": "3", "region": "us-east"}},
		{`bucket{shard="0",le="+Inf"}`, "bucket", map[string]string{"le": "+Inf", "shard": "0"}},
		{`escaped{a="x\"y\\z",b="sp ace,{}= ",c="é\n"}`, "escaped", map[string]string{"a": "x\"y\\z", "b": "sp ace,{}= ", "c": "é\n"}},
		{`digits{a1="2",a="1"}`, "digits", map[string]string{"a": "1", "a1": "2"}},
	} {
		name, labels, err := ParseSeries(c.id)
		if err != nil {
			t.Fatalf("ParseSeries(%q): %v", c.id, err)
		}
		if name != c.name || !maps.Equal(labels, c.labels) {
			t.Errorf("ParseSeries(%q) = %q %v, want %q %v", c.id, name, labels, c.name, c.labels)
		}
		if n2, l2, err := ParseSeries(renderSeries(name, labels)); err != nil || n2 != name || !maps.Equal(l2, labels) {
			t.Errorf("rendering of %q parses to %q %v (%v)", c.id, n2, l2, err)
		}
	}
	for _, bad := range []string{
		"", "x{", "x{a=b}", `x{a="b}`, `x{a="b"`, `x{a="b"c="d"}`, `x{="b"}`,
		`x{a="1",a="2"}`, `x{a="\x41"}`, `x{a="b"} `, `x{a="b"}}`, `1x`, `x y`,
	} {
		if _, _, err := ParseSeries(bad); err == nil {
			t.Errorf("ParseSeries(%q) accepted", bad)
		}
	}
}

func TestQuantileFromBucketsEdges(t *testing.T) {
	if got := QuantileFromBuckets(nil, nil, 0.5); got != 0 {
		t.Errorf("empty buckets quantile = %g", got)
	}
	// All mass in +Inf: report the last finite edge.
	les := []float64{0.1, 0.2, math.Inf(1)}
	cums := []uint64{0, 0, 5}
	if got := QuantileFromBuckets(les, cums, 0.99); got != 0.2 {
		t.Errorf("all-overflow quantile = %g, want 0.2", got)
	}
	// Single finite bucket: interpolates from zero.
	les2 := []float64{1, math.Inf(1)}
	cums2 := []uint64{10, 10}
	got := QuantileFromBuckets(les2, cums2, 0.5)
	if got <= 0 || got > 1 {
		t.Errorf("single-bucket p50 = %g, want in (0, 1]", got)
	}
	// Mismatched slice lengths are a caller bug, not a panic.
	if got := QuantileFromBuckets([]float64{1, 2}, []uint64{3}, 0.5); got != 0 {
		t.Errorf("mismatched lengths quantile = %g, want 0", got)
	}
	// A declared but empty histogram (all-zero cumulatives) has no quantile.
	if got := QuantileFromBuckets(les, []uint64{0, 0, 0}, 0.5); got != 0 {
		t.Errorf("zero-total quantile = %g, want 0", got)
	}
	// Rank landing exactly on a cumulative count interpolates to that
	// bucket's own edge — the bucket boundary, not past it.
	les3 := []float64{1, 2, math.Inf(1)}
	cums3 := []uint64{5, 10, 10}
	if got := QuantileFromBuckets(les3, cums3, 0.5); got != 1 {
		t.Errorf("exact-edge p50 = %g, want 1", got)
	}
	// Out-of-range q clamps: below zero to the distribution's floor,
	// above one to the last finite edge.
	if got := QuantileFromBuckets(les3, cums3, -3); got != 0 {
		t.Errorf("q<0 quantile = %g, want 0", got)
	}
	if got := QuantileFromBuckets(les3, cums3, 7); got != 2 {
		t.Errorf("q>1 quantile = %g, want 2", got)
	}
	// All mass in a lone +Inf bucket: there is no finite edge to report,
	// and the reconstruction says so rather than inventing one.
	if got := QuantileFromBuckets([]float64{math.Inf(1)}, []uint64{5}, 0.5); !math.IsInf(got, 1) {
		t.Errorf("lone-overflow quantile = %g, want +Inf", got)
	}
}
