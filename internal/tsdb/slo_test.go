package tsdb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwise/internal/obs"
)

// fakeExposition renders a minimal valid exposition with two counters the
// tests steer directly.
func fakeExposition(good, bad uint64) []byte {
	return []byte(fmt.Sprintf(
		"# HELP req_good_total Successful requests.\n# TYPE req_good_total counter\nreq_good_total %d\n"+
			"# HELP req_bad_total Failed requests.\n# TYPE req_bad_total counter\nreq_bad_total %d\n",
		good, bad))
}

func TestObjectiveValidate(t *testing.T) {
	bad := []Objective{
		{},
		{Name: "x", Target: 0},
		{Name: "x", Target: 1.5, Bad: "b", Total: "t"},
		{Name: "x", Target: 0.9},                                    // no form
		{Name: "x", Target: 0.9, Bad: "b"},                          // ratio missing total/good
		{Name: "x", Target: 0.9, Family: "f"},                       // latency missing threshold
		{Name: "x", Target: 0.9, Bad: "b", Total: "t", Family: "f"}, // both forms
		{Name: "x", Target: 0.9, Bad: "b", Total: "t", Rules: []BurnRule{{Name: "r", Long: 1, Short: 5, Factor: 2}}}, // short > long
		{Name: "x", Target: 0.9, Bad: "b", Total: "t", Rules: []BurnRule{{Name: "r", Long: 5, Short: 1, Factor: 0}}}, // factor
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	good := Objective{Name: "avail", Target: 0.99, Bad: "b", Total: "t"}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected valid objective: %v", err)
	}
	if len(good.Rules) != 2 || good.Rules[0].Name != "fast" {
		t.Errorf("defaulted rules = %+v", good.Rules)
	}
}

// TestSLOEngineRejectsDuplicateNames: alerts are keyed by (objective,
// rule) name, so two objectives sharing a name, or two rules sharing one
// within an objective, would yield alerts nobody can tell apart.
func TestSLOEngineRejectsDuplicateNames(t *testing.T) {
	lat := func(threshMs float64) Objective {
		return Objective{Name: "latency", Target: 0.99, Family: "f", ThresholdMs: threshMs}
	}
	rules := []BurnRule{{Name: "fast", Long: 5, Short: 1, Factor: 14}, {Name: "fast", Long: 60, Short: 5, Factor: 6}}
	for name, objs := range map[string][]Objective{
		"objective": {lat(250), lat(50)},
		"rule":      {{Name: "avail", Target: 0.99, Bad: "b", Total: "t", Rules: rules}},
	} {
		if _, err := newSLOEngine(objs, nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("duplicate %s name: err = %v, want a duplicate-name error", name, err)
		}
	}
	if _, err := newSLOEngine([]Objective{lat(250), {Name: "availability", Target: 0.999, Bad: "b", Good: "g"}}, nil); err != nil {
		t.Fatalf("distinct objectives rejected: %v", err)
	}
}

// TestBurnRateFireAndClear drives a sync recorder through healthy rounds,
// an error storm, and recovery, and checks the multi-window alert fires
// during the storm and clears after it — and that the pre-storm blip of a
// single bad round does NOT fire (the long window protects against it).
func TestBurnRateFireAndClear(t *testing.T) {
	var good, bad atomic.Uint64
	var logs []string
	rec, err := New(func() []byte { return fakeExposition(good.Load(), bad.Load()) }, Config{
		SLOs: []Objective{{
			Name:   "availability",
			Target: 0.9, // 10% budget: errFrac 0.5 = burn 5
			Bad:    "req_bad_total",
			Total:  "", Good: "req_good_total",
			Rules: []BurnRule{{Name: "fast", Long: 4, Short: 1, Factor: 3}},
		}},
		Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	round := uint64(0)
	step := func(g, b uint64) {
		round++
		good.Add(g)
		bad.Add(b)
		rec.Observe(round)
	}
	// Healthy baseline.
	for i := 0; i < 6; i++ {
		step(100, 0)
	}
	// One bad blip: short window burns but the long window holds it back.
	step(40, 60)
	if a, _ := rec.Alerts(); a[0].Firing {
		t.Fatalf("alert fired on a single-round blip: %+v", a[0])
	}
	step(100, 0) // recover
	// Sustained storm: every request fails.
	var stormStart uint64
	for i := 0; i < 6; i++ {
		step(0, 100)
		if a, _ := rec.Alerts(); a[0].Firing && stormStart == 0 {
			stormStart = round
		}
	}
	alerts, firing := rec.Alerts()
	if len(alerts) != 1 || !alerts[0].Firing || firing != 1 {
		t.Fatalf("alert not firing after sustained storm: %+v (firing count %d)", alerts, firing)
	}
	if stormStart == 0 || alerts[0].FiredAtRound != stormStart {
		t.Errorf("fired_at=%d, first observed firing at %d", alerts[0].FiredAtRound, stormStart)
	}
	// Recovery: healthy rounds clear the short window.
	for i := 0; i < 3; i++ {
		step(100, 0)
	}
	alerts, firing = rec.Alerts()
	if alerts[0].Firing || firing != 0 {
		t.Fatalf("alert still firing after recovery: %+v", alerts[0])
	}
	if alerts[0].ClearedAtRound <= alerts[0].FiredAtRound || alerts[0].Fires != 1 {
		t.Errorf("transitions: %+v", alerts[0])
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "slo alert firing") || !strings.Contains(joined, "slo alert cleared") {
		t.Errorf("transition logs missing:\n%s", joined)
	}
}

// TestNoDataHoldsState pins the no-data rule: when a window holds zero
// events (a feed in backoff fetches nothing), the alert holds its state
// instead of clearing on silence.
func TestNoDataHoldsState(t *testing.T) {
	var good, bad atomic.Uint64
	rec, err := New(func() []byte { return fakeExposition(good.Load(), bad.Load()) }, Config{
		SLOs: []Objective{{
			Name: "avail", Target: 0.9,
			Bad: "req_bad_total", Good: "req_good_total",
			Rules: []BurnRule{{Name: "fast", Long: 2, Short: 1, Factor: 2}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	round := uint64(0)
	step := func(g, b uint64) {
		round++
		good.Add(g)
		bad.Add(b)
		rec.Observe(round)
	}
	step(10, 0)
	step(0, 10)
	step(0, 10)
	if a, _ := rec.Alerts(); !a[0].Firing {
		t.Fatalf("alert should fire: %+v", a[0])
	}
	// Silence: no events at all for many rounds. State must hold.
	for i := 0; i < 5; i++ {
		step(0, 0)
	}
	if a, _ := rec.Alerts(); !a[0].Firing {
		t.Errorf("alert cleared on no-data silence: %+v", a[0])
	}
	// Real recovery clears it.
	step(50, 0)
	if a, _ := rec.Alerts(); a[0].Firing {
		t.Errorf("alert held after real recovery: %+v", a[0])
	}
}

// TestLatencyObjective drives a latency-form objective from a real
// histogram rendered through the exposition.
func TestLatencyObjective(t *testing.T) {
	var h obs.Histogram
	gather := func() []byte {
		snap := h.Snapshot()
		return snap.AppendProm(nil, "lat_seconds", "Latency.", "", true)
	}
	rec, err := New(gather, Config{
		SLOs: []Objective{{
			Name: "latency", Target: 0.9,
			Family: "lat_seconds", ThresholdMs: 100,
			Rules: []BurnRule{{Name: "fast", Long: 3, Short: 1, Factor: 3}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	round := uint64(0)
	step := func(v float64, n int) {
		round++
		for i := 0; i < n; i++ {
			h.Record(v)
		}
		rec.Observe(round)
	}
	for i := 0; i < 4; i++ {
		step(0.001, 50)
	}
	if a, _ := rec.Alerts(); a[0].Firing {
		t.Fatalf("latency alert fired while fast: %+v", a[0])
	}
	for i := 0; i < 4; i++ {
		step(5.0, 50) // every observation blows the 100ms threshold
	}
	if a, _ := rec.Alerts(); !a[0].Firing {
		t.Fatalf("latency alert did not fire while slow: %+v", a[0])
	}
	for i := 0; i < 2; i++ {
		step(0.001, 50)
	}
	if a, _ := rec.Alerts(); a[0].Firing {
		t.Errorf("latency alert did not clear after recovery: %+v", a[0])
	}
}

// burst feeds rounds 1..n to rec, bumping the good counter before each.
func burst(rec *Recorder, good *atomic.Uint64, n uint64) {
	for r := uint64(1); r <= n; r++ {
		good.Add(1)
		rec.Observe(r)
	}
}

// TestRecorderNoFloorScrapesEveryRound pins the zero floor: every round is
// scraped inline, in order, before Observe returns.
func TestRecorderNoFloorScrapesEveryRound(t *testing.T) {
	var good atomic.Uint64
	rec, err := New(func() []byte { return fakeExposition(good.Load(), 0) }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for r := uint64(1); r <= 100; r++ {
		good.Add(1)
		rec.Observe(r)
		if st := rec.Stats(); st.LastRound != r || st.Scrapes != r {
			t.Fatalf("after Observe(%d): last=%d scrapes=%d", r, st.LastRound, st.Scrapes)
		}
	}
	if st := rec.Stats(); st.CoalescedRounds != 0 {
		t.Errorf("coalesced %d rounds with no floor", st.CoalescedRounds)
	}
	samples := rec.Store().Query("req_good_total", 0, 0)
	if len(samples) != 100 || samples[99].Round != 100 || samples[99].Value != 100 {
		t.Errorf("recorded %d samples, last %+v; want every round 1..100", len(samples), samples[len(samples)-1])
	}
}

// TestRecorderFloorCoalescesBurst checks that a floor longer than the run
// scrapes the first round inline, passes over the rest of the burst, and
// leaves the newest round for Close to record.
func TestRecorderFloorCoalescesBurst(t *testing.T) {
	var good atomic.Uint64
	rec, err := New(func() []byte { return fakeExposition(good.Load(), 0) }, Config{MinInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	burst(rec, &good, 500)
	if st := rec.Stats(); st.Scrapes != 1 || st.LastRound != 1 {
		t.Fatalf("inside the floor: scrapes=%d last=%d, want round 1 only", st.Scrapes, st.LastRound)
	}
	rec.Close()
	st := rec.Stats()
	if st.Scrapes != 2 || st.LastRound != 500 || st.CoalescedRounds != 498 {
		t.Errorf("after Close: scrapes=%d last=%d coalesced=%d, want 2, 500, 498", st.Scrapes, st.LastRound, st.CoalescedRounds)
	}
	if v, ok := rec.Store().Increase("req_good_total", 1000, 0); !ok || v != 499 {
		t.Errorf("increase over the run = %g (ok=%v), want 499 (round 1 to round 500)", v, ok)
	}
	rec.Observe(501) // after Close: ignored
	if st := rec.Stats(); st.LastRound != 500 {
		t.Errorf("round observed after Close was recorded: last=%d", st.LastRound)
	}
}

// TestRecorderFloorTimerRecordsIdleTail checks that the newest round of a
// burst followed by idleness is recorded once the floor is up, without
// waiting for Close: the floor timer does it.
func TestRecorderFloorTimerRecordsIdleTail(t *testing.T) {
	var good atomic.Uint64
	rec, err := New(func() []byte { return fakeExposition(good.Load(), 0) }, Config{MinInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	burst(rec, &good, 50)
	deadline := time.Now().Add(time.Second)
	for rec.Stats().LastRound != 50 {
		if time.Now().After(deadline) {
			t.Fatalf("newest round not recorded 1s after the burst: %+v", rec.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecorderConcurrentObservers races several round loops, the floor
// timer and readers; the newest round must be recorded by Close.
func TestRecorderConcurrentObservers(t *testing.T) {
	var good atomic.Uint64
	rec, err := New(func() []byte { return fakeExposition(good.Load(), 0) }, Config{MinInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			burst(rec, &good, 300)
			rec.Stats()
			rec.Alerts()
		}()
	}
	wg.Wait()
	rec.Close()
	if st := rec.Stats(); st.LastRound != 300 {
		t.Errorf("last recorded round %d, want 300", st.LastRound)
	}
}

// TestRecorderMetricsBlock checks the recorder's own exposition block
// parses and lints cleanly with the production prefix.
func TestRecorderMetricsBlock(t *testing.T) {
	rec, err := New(func() []byte { return fakeExposition(1, 0) }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.Observe(1)
	b := rec.AppendMetrics(nil, "waterwise_")
	if err := obs.LintProm(b); err != nil {
		t.Fatalf("recorder metrics block fails lint: %v\n%s", err, b)
	}
	fams, err := obs.ParseProm(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"waterwise_tsdb_series", "waterwise_tsdb_scrapes_total", "waterwise_alerts_firing", "waterwise_tsdb_evicted_chunks_total"} {
		if fams[want] == nil {
			t.Errorf("family %s missing from recorder block", want)
		}
	}
}
