package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"waterwise/internal/obs"
)

// TestChunkRoundTrip pins the compression codec: every value pattern a
// scrape produces (flat gauges, slow counters, jittery floats, sign
// flips) must decode bit-identical.
func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := map[string]func(i int) float64{
		"flat":    func(i int) float64 { return 42 },
		"counter": func(i int) float64 { return float64(i * 3) },
		"jitter":  func(i int) float64 { return 0.001 + rng.Float64()*1e-6 },
		"signs":   func(i int) float64 { return float64(i%5-2) * 1.5 },
		"huge":    func(i int) float64 { return math.MaxFloat64 / float64(i+1) },
		"tiny":    func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(i+1) },
	}
	for name, gen := range patterns {
		var c chunk
		want := make([]Sample, 0, 300)
		round := uint64(1)
		for i := 0; i < 300; i++ {
			v := gen(i)
			c.appendSample(round, v)
			want = append(want, Sample{Round: round, Value: v})
			// Mostly stride-1 rounds with occasional gaps, like a paced
			// recorder that missed rounds.
			round += uint64(1 + rng.Intn(3)*rng.Intn(2)*7)
		}
		got := c.decode(nil)
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d samples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestCompressionRatio sanity-checks that the codec actually compresses:
// a steady counter at a constant round stride must cost well under the
// 16 raw bytes per sample.
func TestCompressionRatio(t *testing.T) {
	var c chunk
	for i := 0; i < chunkSamples; i++ {
		c.appendSample(uint64(i+1), float64(i*17))
	}
	perSample := float64(len(c.buf)) / chunkSamples
	if perSample > 8 {
		t.Errorf("steady counter costs %.1f bytes/sample, want < 8", perSample)
	}
}

// TestIncreaseHonoursRefLabels pins series references as label subsets:
// labels in any order select the series that carry them, and a label set
// no series carries selects nothing.
func TestIncreaseHonoursRefLabels(t *testing.T) {
	st := NewStore(0)
	for r := uint64(1); r <= 10; r++ {
		st.Append(`c_total{kind="a",shard="0"}`, r, float64(r))
		st.Append(`c_total{shard="1",kind="a"}`, r, float64(10*r))
	}
	for _, c := range []struct {
		ref  string
		want float64
		ok   bool
	}{
		{`c_total`, 55, true},
		{`c_total{kind="a"}`, 55, true},
		{`c_total{kind="a",shard="0"}`, 5, true},
		{`c_total{shard="0",kind="a"}`, 5, true},
		{`c_total{shard="1"}`, 50, true},
		{`c_total{shard="7"}`, 0, false},
		{`c_total{kind="b",shard="0"}`, 0, false},
		{`c_total{shard=0}`, 0, false},
		{`other_total`, 0, false},
	} {
		if v, ok := st.Increase(c.ref, 5, 0); v != c.want || ok != c.ok {
			t.Errorf("Increase(%s) = %g,%v want %g,%v", c.ref, v, ok, c.want, c.ok)
		}
		if v, ok := st.Rate(c.ref, 5, 0); v != c.want/5 || ok != c.ok {
			t.Errorf("Rate(%s) = %g,%v want %g,%v", c.ref, v, ok, c.want/5, c.ok)
		}
	}
}

// TestStoreEviction fills a tiny store and checks the oldest window is
// evicted first, with the loss surfaced in the counters.
func TestStoreEviction(t *testing.T) {
	st := NewStore(4096)
	rounds := uint64(3000)
	for r := uint64(1); r <= rounds; r++ {
		st.Append("a_total", r, float64(r))
		st.Append("b_total", r, float64(r*2))
	}
	stats := st.Stats()
	if stats.Bytes > stats.BudgetBytes {
		t.Errorf("store over budget: %d > %d", stats.Bytes, stats.BudgetBytes)
	}
	if stats.EvictedChunks == 0 {
		t.Fatal("no chunks evicted at a 4KiB budget after 6000 samples")
	}
	if stats.EvictedSamples == 0 || stats.Samples != 2*rounds {
		t.Errorf("samples=%d evicted=%d", stats.Samples, stats.EvictedSamples)
	}
	// Recent history must survive; the oldest must be gone.
	if got := st.Query("a_total", rounds, rounds); len(got) != 1 {
		t.Error("newest sample evicted")
	}
	if got := st.Query("a_total", 1, 10); len(got) != 0 {
		t.Errorf("oldest window survived a full budget churn: %v", got)
	}
}

func TestIncreaseAndRate(t *testing.T) {
	st := NewStore(0)
	for r := uint64(1); r <= 20; r++ {
		st.Append("jobs_total", r, float64(r*10))
	}
	if v, ok := st.Increase("jobs_total", 5, 20); !ok || v != 50 {
		t.Errorf("increase(5@20) = %g,%v want 50", v, ok)
	}
	if v, ok := st.Rate("jobs_total", 5, 20); !ok || v != 10 {
		t.Errorf("rate(5@20) = %g,%v want 10", v, ok)
	}
	// Window wider than history: baseline falls to the earliest sample.
	if v, ok := st.Increase("jobs_total", 100, 20); !ok || v != 190 {
		t.Errorf("increase(100@20) = %g,%v want 190", v, ok)
	}
	// end=0 resolves to the newest round.
	if v, ok := st.Increase("jobs_total", 5, 0); !ok || v != 50 {
		t.Errorf("increase(5@latest) = %g,%v want 50", v, ok)
	}
	if _, ok := st.Increase("missing_total", 5, 20); ok {
		t.Error("increase of unknown series reported ok")
	}
}

// TestIncreaseCounterReset pins the reset heuristic: a counter that drops
// (shard restart) reports the post-reset value, not a negative increase.
func TestIncreaseCounterReset(t *testing.T) {
	st := NewStore(0)
	st.Append("c_total", 1, 100)
	st.Append("c_total", 2, 150)
	st.Append("c_total", 3, 7) // restart
	if v, ok := st.Increase("c_total", 2, 3); !ok || v != 7 {
		t.Errorf("increase over reset = %g,%v want 7", v, ok)
	}
}

// TestIncreaseSumsFamily pins bare-name references summing every label
// set — the shape per-shard and per-provider counters take.
func TestIncreaseSumsFamily(t *testing.T) {
	st := NewStore(0)
	for r := uint64(1); r <= 10; r++ {
		st.Append(`f_total{shard="0"}`, r, float64(r))
		st.Append(`f_total{shard="1"}`, r, float64(r*3))
	}
	if v, ok := st.Increase("f_total", 4, 10); !ok || v != 16 {
		t.Errorf("family increase = %g,%v want 16 (4 + 12)", v, ok)
	}
	// An exact key narrows to one series.
	if v, ok := st.Increase(`f_total{shard="1"}`, 4, 10); !ok || v != 12 {
		t.Errorf("exact-key increase = %g,%v want 12", v, ok)
	}
}

// scrapeHist renders an obs histogram into a store at the given round,
// going through the real exposition text — the same path the recorder
// takes — so elision and re-anchoring behave exactly as in production.
func scrapeHist(t *testing.T, st *Store, h *obs.Histogram, name string, round uint64) {
	t.Helper()
	snap := h.Snapshot()
	if err := st.appendText(snap.AppendProm(nil, name, "Test histogram.", "", true), round); err != nil {
		t.Fatalf("appendText: %v", err)
	}
}

// TestQuantileOverWindow records a histogram whose distribution shifts
// mid-history and checks windowed quantiles see only their window: early
// windows the fast mode, late windows the slow mode.
func TestQuantileOverWindow(t *testing.T) {
	st := NewStore(0)
	var h obs.Histogram
	for r := uint64(1); r <= 20; r++ {
		for i := 0; i < 50; i++ {
			if r <= 10 {
				h.Record(0.001) // fast regime
			} else {
				h.Record(1.0) // slow regime
			}
		}
		scrapeHist(t, st, &h, "lat_seconds", r)
	}
	early, ok := st.QuantileOver("lat_seconds", 0.99, 5, 10)
	if !ok || early > 0.01 {
		t.Errorf("early-window p99 = %g,%v want ~0.001", early, ok)
	}
	late, ok := st.QuantileOver("lat_seconds", 0.99, 5, 20)
	if !ok || late < 0.5 || late > 2 {
		t.Errorf("late-window p99 = %g,%v want ~1.0", late, ok)
	}
	// Whole-history window blends both regimes: p50 splits them.
	all, ok := st.QuantileOver("lat_seconds", 0.25, 20, 20)
	if !ok || all > 0.01 {
		t.Errorf("all-history p25 = %g,%v want fast regime", all, ok)
	}
	if _, ok := st.QuantileOver("lat_seconds", 0.99, 5, 0); !ok {
		t.Error("end=0 quantile not ok")
	}
}

// TestQuantileSumsShards pins that a bare family quantile merges labeled
// groups by counter sum — exact, because shards share the bucket scheme.
func TestQuantileSumsShards(t *testing.T) {
	st := NewStore(0)
	var h0, h1 obs.Histogram
	for r := uint64(1); r <= 8; r++ {
		for i := 0; i < 30; i++ {
			h0.Record(0.002)
			h1.Record(0.002)
		}
		for _, sh := range []struct {
			h     *obs.Histogram
			shard string
		}{{&h0, "0"}, {&h1, "1"}} {
			snap := sh.h.Snapshot()
			b := snap.AppendProm(nil, "lat_seconds", "Test histogram.", fmt.Sprintf("shard=%q", sh.shard), true)
			if err := st.appendText(b, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, ok := st.QuantileOver("lat_seconds", 0.5, 4, 8)
	if !ok || v <= 0 || v > 0.01 {
		t.Errorf("merged p50 = %g,%v want ~0.002", v, ok)
	}
	// Count over the window: 2 shards x 30 obs x 4 rounds.
	if inc, ok := st.Increase("lat_seconds_count", 4, 8); !ok || inc != 240 {
		t.Errorf("windowed count = %g,%v want 240", inc, ok)
	}
}

func TestFracAtMost(t *testing.T) {
	st := NewStore(0)
	var h obs.Histogram
	for r := uint64(1); r <= 10; r++ {
		for i := 0; i < 9; i++ {
			h.Record(0.001)
		}
		h.Record(10.0)
		scrapeHist(t, st, &h, "lat_seconds", r)
	}
	frac, ok := st.FracAtMost("lat_seconds", 0.1, 5, 10)
	if !ok || frac < 0.85 || frac > 0.95 {
		t.Errorf("frac<=100ms = %g,%v want ~0.9", frac, ok)
	}
	if _, ok := st.FracAtMost("lat_seconds", 0.1, 5, 0); !ok {
		t.Error("end=0 FracAtMost not ok")
	}
	if _, ok := st.FracAtMost("nope_seconds", 0.1, 5, 10); ok {
		t.Error("unknown family FracAtMost reported ok")
	}
}

// TestAppendTextAllOrNothing pins the scrape contract: every sample line
// is keyed by its identity as written, and a line that cannot be read —
// no value, a bad value, or a new identity the series grammar rejects —
// drops the whole scrape, the lines before it included.
func TestAppendTextAllOrNothing(t *testing.T) {
	st := NewStore(0)
	good := "# HELP a_total Docs.\n# TYPE a_total counter\na_total 1\n\nb{k=\"v w\",le=\"+Inf\"} 2\n"
	if err := st.appendText([]byte(good), 1); err != nil {
		t.Fatal(err)
	}
	if got := st.Query(`b{k="v w",le="+Inf"}`, 0, 0); len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("identity with a space in a label value: %v", got)
	}
	before := st.Stats()
	for _, bad := range []string{
		"a_total 2\nnovalue\n",
		"a_total 2\nb_total x\n",
		"a_total 2\nc{k=v} 1\n",
		"a_total 2\n 1\n",
	} {
		if err := st.appendText([]byte(bad), 2); err == nil {
			t.Errorf("appendText accepted %q", bad)
		}
		if st.Stats() != before {
			t.Fatalf("rejected scrape %q changed the store: %+v -> %+v", bad, before, st.Stats())
		}
	}
	if err := st.Append(`c{k=v}`, 1, 1); err == nil {
		t.Error("Append accepted an identity the series grammar rejects")
	}
}

// TestRecorderCountsUnreadableScrapes checks a dropped scrape is counted
// and records nothing.
func TestRecorderCountsUnreadableScrapes(t *testing.T) {
	rec, err := New(func() []byte { return []byte("a_total 1\nb_total one\n") }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.Observe(1)
	if st := rec.Stats(); st.ParseErrors != 1 || st.Scrapes != 0 || st.Samples != 0 {
		t.Errorf("stats after an unreadable scrape: %+v", st)
	}
}
