package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/footprint"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/units"
)

var t0 = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// outcome fabricates a JobOutcome with the given compute footprint and
// placement.
func outcome(id int, home, ran region.ID, carbon, water float64, exec, service time.Duration, violated bool) cluster.JobOutcome {
	j := &trace.Job{ID: id, Submit: t0, Home: home, Duration: exec}
	return cluster.JobOutcome{
		Job: j, Region: ran,
		Start: t0, Finish: t0.Add(service), Exec: exec,
		Compute: footprint.Footprint{
			OperationalCarbon: 0, EmbodiedCarbon: 0,
		},
		Comm:     footprint.Footprint{},
		Violated: violated,
	}
}

func resultWith(sched string, carbons, waters []float64) *cluster.Result {
	r := &cluster.Result{Scheduler: sched}
	for i := range carbons {
		o := outcome(i, region.Oregon, region.Oregon, carbons[i], waters[i], 10*time.Minute, 10*time.Minute, false)
		o.Compute.OperationalCarbon = unitsG(carbons[i])
		o.Compute.OnsiteWater = unitsL(waters[i])
		r.Outcomes = append(r.Outcomes, o)
	}
	return r
}

func TestCompareComputesSavings(t *testing.T) {
	base := resultWith("baseline", []float64{100, 100}, []float64{10, 10})
	run := resultWith("waterwise", []float64{60, 60}, []float64{9, 9})
	sv, err := Compare(base, run)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv.CarbonPct-40) > 1e-9 {
		t.Errorf("carbon saving = %g, want 40", sv.CarbonPct)
	}
	if math.Abs(sv.WaterPct-10) > 1e-9 {
		t.Errorf("water saving = %g, want 10", sv.WaterPct)
	}
	if sv.Scheduler != "waterwise" {
		t.Errorf("scheduler = %q", sv.Scheduler)
	}
}

func TestCompareErrors(t *testing.T) {
	base := resultWith("baseline", []float64{100}, []float64{10})
	if _, err := Compare(base, &cluster.Result{Scheduler: "x"}); err == nil {
		t.Error("empty run accepted")
	}
	short := resultWith("x", []float64{1, 2}, []float64{1, 2})
	if _, err := Compare(base, short); err == nil {
		t.Error("mismatched job counts accepted")
	}
	zero := resultWith("baseline", []float64{0}, []float64{0})
	runOne := resultWith("x", []float64{1}, []float64{1})
	if _, err := Compare(zero, runOne); err == nil {
		t.Error("degenerate baseline accepted")
	}
}

// TestCompareNamesAbandonedJobs: a run whose placed and abandoned jobs
// add up to the baseline's is reported as abandonment, with the scheduler
// and the count, whether it placed some jobs or none.
func TestCompareNamesAbandonedJobs(t *testing.T) {
	base := resultWith("baseline", []float64{100, 100, 100}, []float64{10, 10, 10})
	for _, tc := range []struct {
		placed int
		want   string
	}{
		{2, "waterwise left 1 of 3 jobs unscheduled"},
		{0, "waterwise left 3 of 3 jobs unscheduled"},
	} {
		fp := slices.Repeat([]float64{50}, tc.placed)
		run := resultWith("waterwise", fp, fp)
		for i := tc.placed; i < 3; i++ {
			run.Unscheduled = append(run.Unscheduled, &trace.Job{ID: i})
		}
		_, err := Compare(base, run)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d placed: error %v, want one saying %q", tc.placed, err, tc.want)
		}
	}
	short := resultWith("x", []float64{1, 2}, []float64{1, 2})
	short.Unscheduled = []*trace.Job{{ID: 7}, {ID: 8}}
	if _, err := Compare(base, short); err == nil || !strings.Contains(err.Error(), "job count mismatch") {
		t.Errorf("2 placed + 2 abandoned of 3: error %v, want a job count mismatch", err)
	}
}

func TestDistribution(t *testing.T) {
	r := &cluster.Result{Scheduler: "x"}
	regions := []region.ID{region.Zurich, region.Milan}
	for i := 0; i < 3; i++ {
		r.Outcomes = append(r.Outcomes, outcome(i, region.Zurich, region.Zurich, 1, 1, time.Minute, time.Minute, false))
	}
	r.Outcomes = append(r.Outcomes, outcome(3, region.Zurich, region.Milan, 1, 1, time.Minute, time.Minute, false))
	d := Distribution(r, regions)
	if math.Abs(d[region.Zurich]-75) > 1e-9 || math.Abs(d[region.Milan]-25) > 1e-9 {
		t.Errorf("distribution = %v, want 75/25", d)
	}
	if len(Distribution(&cluster.Result{}, regions)) != 0 {
		t.Error("empty result distribution should be empty")
	}
}

func TestOverheadSeries(t *testing.T) {
	r := resultWith("x", []float64{1, 1}, []float64{1, 1})
	r.Ticks = []cluster.TickStat{
		{At: t0, Batch: 2, Decided: 2, Overhead: 60 * time.Millisecond},
		{At: t0.Add(time.Minute), Batch: 0, Decided: 0, Overhead: time.Millisecond},
	}
	times, pct := OverheadSeries(r)
	if len(times) != 1 || len(pct) != 1 {
		t.Fatalf("series lengths = %d/%d, want 1/1 (empty batches skipped)", len(times), len(pct))
	}
	// 60ms overhead over 600s mean exec = 0.01%.
	if math.Abs(pct[0]-0.01) > 1e-9 {
		t.Errorf("overhead pct = %g, want 0.01", pct[0])
	}
	if m := MeanOverheadPct(r); math.Abs(m-0.01) > 1e-9 {
		t.Errorf("mean overhead = %g, want 0.01", m)
	}
}

func TestCommOverheadOnlyMigrated(t *testing.T) {
	r := &cluster.Result{Scheduler: "x"}
	stay := outcome(0, region.Oregon, region.Oregon, 1, 1, time.Minute, time.Minute, false)
	stay.Compute.OperationalCarbon = unitsG(100)
	stay.Comm.OperationalCarbon = unitsG(50) // must be ignored: not migrated
	move := outcome(1, region.Oregon, region.Zurich, 1, 1, time.Minute, time.Minute, false)
	move.Compute.OperationalCarbon = unitsG(200)
	move.Compute.OnsiteWater = unitsL(20)
	move.Comm.OperationalCarbon = unitsG(1)
	move.Comm.OnsiteWater = unitsL(0.04)
	r.Outcomes = append(r.Outcomes, stay, move)
	over := CommOverhead(r, []region.ID{region.Oregon, region.Zurich})
	z := over[region.Zurich]
	if math.Abs(z[0]-0.5) > 1e-9 {
		t.Errorf("zurich carbon overhead = %g%%, want 0.5%%", z[0])
	}
	if math.Abs(z[1]-0.2) > 1e-9 {
		t.Errorf("zurich water overhead = %g%%, want 0.2%%", z[1])
	}
	if o := over[region.Oregon]; o[0] != 0 || o[1] != 0 {
		t.Errorf("home region overhead = %v, want zeros", o)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "long-header"}}
	tb.AddRow("x", "1")
	tb.AddRow("yyyy", "2")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Errorf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns align: the second column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "long-header")
	for _, ln := range lines[3:] {
		if len(ln) <= idx {
			t.Errorf("row %q shorter than header offset", ln)
		}
	}
}

func TestFormattersAndSort(t *testing.T) {
	if Pct(12.345) != "12.3%" {
		t.Errorf("Pct = %q", Pct(12.345))
	}
	if Times(1.234) != "1.23x" {
		t.Errorf("Times = %q", Times(1.234))
	}
}

// tiny aliases keeping fabricated outcomes readable.
func unitsG(v float64) units.GramsCO2 { return units.GramsCO2(v) }
func unitsL(v float64) units.Liters   { return units.Liters(v) }
