package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// stream-steady re-executes itself as the load generator.
func TestMain(m *testing.M) {
	if spec := os.Getenv(clientEnv); spec != "" {
		clientMain(spec, time.Now())
		return
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload at about 1/50 of its committed
// size with every correctness check on, untraced and traced, and requires
// each kind of run to report exactly the metrics BENCHMARK.json promises.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(name, 3, 0.3, 0.02, traced, t.TempDir())
			if err != nil {
				t.Fatalf("traced=%v: %v", traced, err)
			}
			res, err := r.report()
			if err != nil {
				t.Fatalf("traced=%v: %v", traced, err)
			}
			if res.Attempted < 100 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d jobs offered, %d failed", name, traced, res.Attempted, res.Failed)
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
					}
				}
			}
		}
	}
}

// TestRegistryMatchesBenchmarkFile keeps the program's metric names, units
// and directions equal to the contract the driver reads.
func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if bf.EndToEnd[i].metric != m {
			t.Errorf("end_to_end[%d] is %+v, the program has %+v", i, bf.EndToEnd[i].metric, m)
		}
		if b := bf.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, b)
		}
	}
	for i, m := range perLayer {
		if bf.PerLayer[i] != m {
			t.Errorf("per_layer[%d] is %+v, the program has %+v", i, bf.PerLayer[i], m)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestPercentiles(t *testing.T) {
	// 1..1000: the median interpolates, and the highest reported
	// percentile is the one that still has ten samples beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	d := summarize(xs)
	t.Logf("n=%d p50=%g p%g=%g", d.N, d.P50, 100*d.TopQ, d.Top)
	if d.N != 1000 || d.P50 != 500.5 {
		t.Errorf("median of 1..1000 = %g over %d samples, want 500.5 over 1000", d.P50, d.N)
	}
	if d.TopQ != 0.99 || math.Abs(d.Top-990.01) > 1e-9 {
		t.Errorf("top percentile p%g = %g, want p99 = 990.01", 100*d.TopQ, d.Top)
	}
	for n, want := range map[int]float64{19: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999, 100000: 0.9999} {
		if got := topQuantile(n); got != want {
			t.Errorf("topQuantile(%d) = %g, want %g", n, got, want)
		}
	}
	// A failed operation is +Inf: it must stay in the tail, not become NaN.
	tail := summarize([]float64{1, 2, math.Inf(1)})
	if tail.P50 != 2 || !math.IsInf(quantile([]float64{1, 2, math.Inf(1)}, 0.9), 1) {
		t.Errorf("with a failed sample: p50 %g, p90 %g", tail.P50, quantile([]float64{1, 2, math.Inf(1)}, 0.9))
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,100], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := weightedQuantile([]float64{5, 1, 3}, []int{1, 8, 1}, 0.5); got != 1 {
		t.Errorf("weighted median = %g, want 1", got)
	}
}

// TestLedgerOrders checks that latency runs from the due instant, whichever
// of the reply and the pushed decision arrives first, and that a job not
// decided exactly once is a failure with infinite latency.
func TestLedgerOrders(t *testing.T) {
	const ms = int64(time.Millisecond)
	l := newLedger(4)
	for id := range l.due {
		l.due[id], l.sent[id] = int64(id)*ms, int64(id)*ms+ms/2 // every send half a millisecond late
	}
	l.replied(0, true) // reply before decision
	l.pushed(0, 2*ms, 3*ms)
	l.pushed(1, 3*ms, 4*ms) // decision before reply
	l.replied(1, true)
	l.replied(2, true) // accepted, never decided
	l.replied(3, true) // decided twice
	l.pushed(3, 5*ms, 6*ms)
	l.pushed(3, 5*ms, 6*ms)

	lat := l.latencies(4, true)
	if lat.failed != 2 || len(lat.total) != 4 {
		t.Fatalf("%d failed of %d samples, want 2 of 4", lat.failed, len(lat.total))
	}
	if lat.total[0] != 3 || lat.total[1] != 3 || !math.IsInf(lat.total[3], 1) {
		t.Errorf("due->seen latencies %v, want 3 ms for both orders and +Inf for failures", lat.total)
	}
	if lat.late[0] != 0.5 || lat.server[0] != 1.5 || lat.push[0] != 1 {
		t.Errorf("split late %v server %v push %v, want 0.5 / 1.5 / 1 first", lat.late, lat.server, lat.push)
	}
	if got := lat.within(3); got != 0.5 {
		t.Errorf("within 3 ms = %g, want 0.5: failures miss every limit", got)
	}
}

// TestLedgerInvalidSegment checks that a half second in which the
// generator ran late is left out of the latencies but not of the failures.
func TestLedgerInvalidSegment(t *testing.T) {
	const ms = int64(time.Millisecond)
	n := 2000 // one job per millisecond: four segments of 500
	l := newLedger(n)
	for id := 0; id < n; id++ {
		l.due[id] = int64(id) * ms
		l.sent[id] = l.due[id]
		if id >= 500 && id < 540 {
			l.sent[id] += 20 * ms // a 20 ms stall in the second segment
		}
		l.replied(id, true)
		if id != 510 { // and one lost job inside it
			l.pushed(id, l.sent[id]+ms, l.sent[id]+2*ms)
		}
	}
	lat := l.latencies(n, true)
	if lat.invalidFrac != 0.25 || len(lat.total) != 1500 || lat.failed != 1 {
		t.Errorf("invalid share %g, %d samples, %d failed; want 0.25, 1500, 1", lat.invalidFrac, len(lat.total), lat.failed)
	}
	if lat.rawLateP99 != 20 || quantile(lat.late, 0.99) != 0 {
		t.Errorf("lateness p99 raw %g, reported %g; want 20 and 0", lat.rawLateP99, quantile(lat.late, 0.99))
	}
}

// TestLedgerWindowed checks the end-to-end latency of an open-loop step: the
// calmest edge across 25 ms windows of each window's percentiles, so that
// a stall of the machine costs the windows it fell in and not the figure,
// while a job that was lost still counts, as +Inf, in its own window.
func TestLedgerWindowed(t *testing.T) {
	const ms = int64(time.Millisecond)
	n := 420 // one job per millisecond: sixteen full windows and a partial one
	l := newLedger(n)
	for id := 0; id < n; id++ {
		l.due[id] = 1000*ms + int64(id)*ms
		l.sent[id] = l.due[id]
		lat := 2 * ms
		switch {
		case id >= 100 && id < 150:
			lat = 30 * ms // a stall covering the fifth and sixth windows
		case id >= 400:
			lat = ms // the partial window would be the fastest
		case id%5 == 4:
			lat = 4 * ms // a fifth of every window, so each p90 is 4 ms
		}
		l.replied(id, true)
		if id != 210 { // a lost job in the ninth window
			l.pushed(id, l.due[id]+lat/2, l.due[id]+lat)
		}
	}
	p50, p90, windows := l.windowed(n)
	if windows != 16 || p50 != 2 || p90 != 4 {
		t.Errorf("windowed = p50 %g, p90 %g over %d windows; want 2, 4 over 16", p50, p90, windows)
	}
	// With every window slower there are no calm ones to report.
	for id := 0; id < n; id++ {
		l.seen[id] += 30 * ms
	}
	if p50, _, _ := l.windowed(n); p50 != 32 {
		t.Errorf("every job 30 ms slower: p50 %g, want 32", p50)
	}
	// A step shorter than one window is its own window.
	if p50, _, windows := l.windowed(20); windows != 1 || p50 != 32 {
		t.Errorf("20 jobs: p50 %g over %d windows, want 32 over 1", p50, windows)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 100, Parent: -1},
		{Name: "cluster.Run", Start: 10, End: 90, Parent: 0},
		{Name: "core.Schedule", Start: 20, End: 40, Parent: 1},
		{Name: "core.Schedule", Start: 30, End: 60, Parent: 1}, // overlaps its sibling
		{Name: "core.Schedule", Start: 80, End: 95, Parent: 1}, // runs past its parent
	}
	self := selfTimes(spans)
	// cluster.Run covers [10,90); its children cover [20,60) and [80,90).
	if self["iteration"] != 20 || self["cluster.Run"] != 30 || self["core.Schedule"] != 65 {
		t.Errorf("self times %v, want iteration 20, cluster.Run 30, core.Schedule 65", self)
	}
	var off *spanLog
	off.end(off.begin("x", -1, 0)) // the untraced run: no-ops on a nil log
	if err := off.write(t.TempDir(), "x"); err != nil {
		t.Error(err)
	}
}
