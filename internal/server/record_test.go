package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/tsdb"
)

// TestRecorderEquivalence pins the flight recorder's honesty bar: a
// replay with the recorder scraping every round (no interval floor, with
// SLO objectives armed) produces the same decisions as one with no recorder
// at all, decision for decision. Recording is measurement only.
func TestRecorderEquivalence(t *testing.T) {
	run := func(record bool) *cluster.Result {
		env := testEnv(t)
		jobs := genTrace(t, env, 3000, 6)
		cfg := Config{
			Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
		}
		if record {
			cfg.Record = &tsdb.Config{
				SLOs: []tsdb.Objective{
					{Name: "availability", Target: 0.999,
						Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total"},
					{Name: "latency", Target: 0.99,
						Family: "waterwise_decision_latency_seconds", ThresholdMs: 250},
				},
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()
		for _, j := range jobs {
			if _, err := srv.Submit(specFor(j)); err != nil {
				t.Fatal(err)
			}
		}
		drainServer(t, srv)
		if record {
			// The recorder must actually have recorded: rounds ran, so the
			// store holds history.
			if st := srv.Recorder().Stats(); st.Scrapes == 0 || st.Samples == 0 {
				t.Fatalf("recorder idle during replay: %+v", st)
			}
		}
		return srv.Result()
	}
	on, off := run(true), run(false)
	if len(on.Outcomes) != len(off.Outcomes) {
		t.Fatalf("outcome counts differ: recorder-on %d, recorder-off %d", len(on.Outcomes), len(off.Outcomes))
	}
	for i := range on.Outcomes {
		a, b := on.Outcomes[i], off.Outcomes[i]
		if a.Job.ID != b.Job.ID || a.Region != b.Region || !a.Start.Equal(b.Start) || !a.Finish.Equal(b.Finish) {
			t.Fatalf("outcome %d differs: recorder-on job %d->%s [%v,%v], recorder-off job %d->%s [%v,%v]",
				i, a.Job.ID, a.Region, a.Start, a.Finish, b.Job.ID, b.Region, b.Start, b.Finish)
		}
	}
}

// TestRecorderReadingMatchesParseProm holds the recorder's line reader to
// the strict parser. A 2-shard replay runs with the recorder armed and
// both kinds of SLO objective; after every round the exposition is read
// both ways — tsdb.ReadExposition, the reader the recorder appends from,
// and obs.ParseProm — and the two readings must agree sample for sample:
// each identity parses to the name, labels and value ParseProm read, and
// no sample is dropped or read twice.
func TestRecorderReadingMatchesParseProm(t *testing.T) {
	env := testEnv(t)
	var (
		mu       sync.Mutex
		firstErr error
		checked  int
	)
	var srv *Server
	srv, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: time.Minute,
		Record: &tsdb.Config{
			SLOs: []tsdb.Objective{
				{Name: "availability", Target: 0.999,
					Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total"},
				{Name: "latency", Target: 0.99,
					Family: "waterwise_decision_latency_seconds", ThresholdMs: 250},
			},
		},
		OnRound: func(int, uint64) {
			err := compareReadings(srv.MetricsText())
			mu.Lock()
			defer mu.Unlock()
			checked++
			if firstErr == nil {
				firstErr = err
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	for _, j := range genTrace(t, env, 3000, 6) {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	drainServer(t, srv)
	srv.Stop()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if st := srv.Recorder().Stats(); checked == 0 || st.Scrapes == 0 || st.ParseErrors != 0 {
		t.Fatalf("%d rounds checked, recorder %+v", checked, st)
	}
}

// compareReadings reads one exposition with tsdb.ReadExposition and with
// obs.ParseProm and reports the first sample where they differ.
func compareReadings(text []byte) error {
	fams, err := obs.ParseProm(text)
	if err != nil {
		return err
	}
	identity := func(name string, labels map[string]string) string { return fmt.Sprintf("%s %q", name, labels) }
	want := make(map[string]float64)
	for _, fam := range fams {
		for _, s := range fam.Samples {
			want[identity(s.Name, s.Labels)] = s.Value
		}
	}
	err = tsdb.ReadExposition(text, func(id []byte, v float64) error {
		name, labels, err := obs.ParseSeries(string(id))
		if err != nil {
			return err
		}
		k := identity(name, labels)
		w, ok := want[k]
		switch {
		case !ok:
			return fmt.Errorf("%s is not a sample ParseProm read, or was read twice", id)
		case w != v && !(math.IsNaN(w) && math.IsNaN(v)):
			return fmt.Errorf("%s = %g, ParseProm read %g", id, v, w)
		}
		delete(want, k)
		return nil
	})
	if err != nil {
		return err
	}
	for k := range want {
		return fmt.Errorf("%d samples ParseProm read were not read, e.g. %s", len(want), k)
	}
	return nil
}

// TestRecorderEndpoints replays a trace with recording on and exercises
// the HTTP query surface: /v1/query over a recorded counter and
// histogram, /v1/alerts, and the recorder's own exposition block passing
// the strict lint.
func TestRecorderEndpoints(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 3000, 6)
	srv, err := New(Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
		Record: &tsdb.Config{
			SLOs: []tsdb.Objective{{Name: "availability", Target: 0.999,
				Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	drainServer(t, srv)
	// Drain returns once the queue is empty, which the last round signals
	// before its end-of-round scrape runs; Stop waits for the loop, so the
	// history below is complete. The store stays queryable after Stop.
	srv.Stop()

	getJSON := func(path string, v interface{}) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	// Raw history of the decisions counter anchors the increase check:
	// the whole-history increase is last-sample minus first-sample (the
	// recorder's first scrape lands after round 1, so decisions committed
	// before it are — correctly — not part of recorded history).
	var raw QueryResponse
	if code := getJSON(PathQuery+"?fn=raw&series="+url.QueryEscape(`waterwise_decisions_total{shard="0"}`), &raw); code != http.StatusOK || len(raw.Samples) == 0 {
		t.Fatalf("raw query: status %d, %d samples", code, len(raw.Samples))
	}
	decided := float64(len(srv.Result().Outcomes))
	last := raw.Samples[len(raw.Samples)-1]
	if last.Value != decided {
		t.Errorf("last recorded decisions sample = %g, want %g", last.Value, decided)
	}
	var q QueryResponse
	if code := getJSON(PathQuery+"?series=waterwise_decisions_total&fn=increase&window=1000000", &q); code != http.StatusOK {
		t.Fatalf("query status %d: %+v", code, q)
	}
	if want := last.Value - raw.Samples[0].Value; !q.Ok || q.Value != want {
		t.Errorf("windowed increase of decisions = %g (ok=%v), want %g", q.Value, q.Ok, want)
	}
	if code := getJSON(PathQuery+"?series=waterwise_decision_latency_seconds&fn=quantile&q=0.99&window=1000000", &q); code != http.StatusOK || !q.Ok || q.Value <= 0 {
		t.Errorf("windowed p99 = %+v (status %d)", q, code)
	}
	if code := getJSON(PathQuery+"?series=waterwise_decisions_total&fn=rate", &q); code != http.StatusBadRequest {
		t.Errorf("rate without window: status %d", code)
	}
	if code := getJSON(PathQuery, &q); code != http.StatusBadRequest {
		t.Errorf("query without series: status %d", code)
	}

	var al AlertsResponse
	if code := getJSON(PathAlerts, &al); code != http.StatusOK {
		t.Fatalf("alerts status %d", code)
	}
	// One objective, two default rules; an accelerated clean replay must
	// not trip availability.
	if len(al.Alerts) != 2 || al.Firing != 0 {
		t.Errorf("alerts = %+v", al)
	}
	if al.Round == 0 {
		t.Error("alerts round is 0 after a replay")
	}

	// The exposition now carries the recorder's own block and build info,
	// and still lints.
	resp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]byte, 0)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		metrics = append(metrics, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if err := obs.LintProm(metrics); err != nil {
		t.Fatalf("/metrics with recorder fails lint: %v", err)
	}
	fams, err := obs.ParseProm(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"waterwise_build_info", "waterwise_tsdb_series", "waterwise_alerts_firing", "waterwise_tsdb_scrapes_total"} {
		if fams[want] == nil {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	bi := fams["waterwise_build_info"]
	if len(bi.Samples) != 1 || bi.Samples[0].Value != 1 {
		t.Fatalf("build_info samples: %+v", bi.Samples)
	}
	for _, label := range []string{"version", "goversion", "gomaxprocs"} {
		if bi.Samples[0].Labels[label] == "" {
			t.Errorf("build_info missing %s label: %v", label, bi.Samples[0].Labels)
		}
	}
}

// TestQueryEndpointsWithoutRecorder pins the 404 contract when recording
// is off.
func TestQueryEndpointsWithoutRecorder(t *testing.T) {
	env := testEnv(t)
	srv, err := New(Config{Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{PathQuery + "?series=x", PathAlerts} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without recorder: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// BenchmarkRecorderScrape is what one scrape costs the round loop that
// runs it — gather the exposition, parse it strictly, append every
// sample — after a 6-hour replay at 3000 jobs/day, at 1, 2 and 4 shards.
// With no interval floor every round pays it; the daemon's default 250 ms
// floor pays it a few times a second.
func BenchmarkRecorderScrape(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			env := testEnv(b)
			srv := drained(b, Config{
				Env: env, NewScheduler: coreFactory(b), Shards: shards, Tolerance: 0.5, Round: time.Minute,
				Record: &tsdb.Config{},
			}, genTrace(b, env, 3000, 6))
			rec := srv.Recorder()
			round := rec.Stats().LastRound
			for b.Loop() {
				round++
				rec.Observe(round)
			}
			if st := rec.Stats(); st.LastRound != round || st.ParseErrors != 0 {
				b.Fatalf("recorder stats after the loop: %+v", st)
			}
		})
	}
}

// TestQueryRawResolvesReferences checks that fn=raw reads a series
// reference the way the windowed functions do: labels in any order, a
// partial label set that selects one series, 400 naming the matches for a
// reference that selects several, and ok=false for one that selects none.
func TestQueryRawResolvesReferences(t *testing.T) {
	srv, err := New(Config{
		Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
		Record: &tsdb.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	st := srv.Recorder().Store()
	for round := uint64(1); round <= 3; round++ {
		st.Append(`c_total{kind="a",shard="0"}`, round, float64(round))
		st.Append(`c_total{kind="b",shard="0"}`, round, 10*float64(round))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct {
		name, series string
		code         int
		first        float64 // the first sample's value when code is 200 and samples are expected
		ok           bool
		errHas       []string
	}{
		{"canonical", `c_total{kind="a",shard="0"}`, http.StatusOK, 1, true, nil},
		{"reordered", `c_total{shard="0",kind="a"}`, http.StatusOK, 1, true, nil},
		{"partial", `c_total{kind="b"}`, http.StatusOK, 10, true, nil},
		{"ambiguous", `c_total{shard="0"}`, http.StatusBadRequest, 0, false,
			[]string{`c_total{kind="a",shard="0"}`, `c_total{kind="b",shard="0"}`}},
		{"bare ambiguous", `c_total`, http.StatusBadRequest, 0, false, []string{"2 series"}},
		{"absent label", `c_total{kind="z"}`, http.StatusOK, 0, false, nil},
		{"absent family", `nope_total`, http.StatusOK, 0, false, nil},
		{"malformed", `c_total{kind=`, http.StatusBadRequest, 0, false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + PathQuery + "?fn=raw&series=" + url.QueryEscape(c.series))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var q QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.code || q.Ok != c.ok {
				t.Fatalf("status %d ok=%v (%+v), want %d ok=%v", resp.StatusCode, q.Ok, q, c.code, c.ok)
			}
			if c.ok && (len(q.Samples) != 3 || q.Samples[0].Value != c.first) {
				t.Errorf("samples %+v, want 3 starting at %g", q.Samples, c.first)
			}
			for _, want := range c.errHas {
				if !strings.Contains(q.Error, want) {
					t.Errorf("error %q does not name %s", q.Error, want)
				}
			}
		})
	}
}
