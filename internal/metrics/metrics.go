// Package metrics turns raw simulation results into the paper's figures of
// merit: carbon/water footprint savings relative to the baseline scheduler,
// normalized service time, delay-tolerance violation rates, per-region job
// distribution, and decision-making overhead — plus plain-text table
// rendering for the experiment harness.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
)

// Savings compares a scheduler run against a baseline run of the same trace.
type Savings struct {
	Scheduler string
	// CarbonPct is the carbon footprint saving vs baseline in percent
	// (positive = better than baseline).
	CarbonPct float64
	// WaterPct is the water footprint saving vs baseline in percent.
	WaterPct float64
	// MeanService is the mean service time normalized to execution time.
	MeanService float64
	// ViolationPct is the percentage of jobs violating their delay
	// tolerance.
	ViolationPct float64
}

// Compare computes savings of run relative to base. It returns an error if
// either run is empty or they cover different job counts; a run that
// covers the baseline's jobs only by counting the ones it abandoned is
// reported as such, not as a count mismatch.
func Compare(base, run *cluster.Result) (Savings, error) {
	if n, m := len(run.Unscheduled), len(base.Outcomes); n > 0 && len(run.Outcomes)+n == m {
		return Savings{}, fmt.Errorf("metrics: %s left %d of %d jobs unscheduled", run.Scheduler, n, m)
	}
	if len(base.Outcomes) == 0 || len(run.Outcomes) == 0 {
		return Savings{}, fmt.Errorf("metrics: empty result (base %d outcomes, run %d)", len(base.Outcomes), len(run.Outcomes))
	}
	if len(base.Outcomes) != len(run.Outcomes) {
		return Savings{}, fmt.Errorf("metrics: job count mismatch: baseline %d vs %s %d",
			len(base.Outcomes), run.Scheduler, len(run.Outcomes))
	}
	bc, bw := float64(base.TotalCarbon()), float64(base.TotalWater())
	rc, rw := float64(run.TotalCarbon()), float64(run.TotalWater())
	if bc <= 0 || bw <= 0 {
		return Savings{}, fmt.Errorf("metrics: degenerate baseline footprint (carbon %g, water %g)", bc, bw)
	}
	return Savings{
		Scheduler:    run.Scheduler,
		CarbonPct:    100 * (1 - rc/bc),
		WaterPct:     100 * (1 - rw/bw),
		MeanService:  run.MeanNormalizedService(),
		ViolationPct: 100 * run.ViolationRate(),
	}, nil
}

// Distribution returns the percentage of jobs placed in each region,
// ordered like ids.
func Distribution(res *cluster.Result, ids []region.ID) map[region.ID]float64 {
	counts := make(map[region.ID]int, len(ids))
	for _, o := range res.Outcomes {
		counts[o.Region]++
	}
	out := make(map[region.ID]float64, len(ids))
	n := float64(len(res.Outcomes))
	if n == 0 {
		return out
	}
	for _, id := range ids {
		out[id] = 100 * float64(counts[id]) / n
	}
	return out
}

// OverheadSeries extracts the decision-making overhead over simulated time
// as a percentage of the mean job execution time (the paper's Fig. 13
// y-axis). Ticks with empty batches are skipped.
func OverheadSeries(res *cluster.Result) (times []time.Time, pct []float64) {
	meanExec := meanExecSeconds(res)
	if meanExec <= 0 {
		return nil, nil
	}
	for _, t := range res.Ticks {
		if t.Batch == 0 {
			continue
		}
		times = append(times, t.At)
		pct = append(pct, 100*t.Overhead.Seconds()/meanExec)
	}
	return times, pct
}

// MeanOverheadPct is the average decision overhead as % of mean execution
// time across all non-empty ticks.
func MeanOverheadPct(res *cluster.Result) float64 {
	_, pct := OverheadSeries(res)
	if len(pct) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pct {
		s += p
	}
	return s / float64(len(pct))
}

func meanExecSeconds(res *cluster.Result) float64 {
	if len(res.Outcomes) == 0 {
		return 0
	}
	s := 0.0
	for _, o := range res.Outcomes {
		s += o.Exec.Seconds()
	}
	return s / float64(len(res.Outcomes))
}

// CommOverhead summarizes Table 3 for one run: average communication carbon
// and water as a percentage of execution carbon/water, per destination
// region, considering only migrated jobs.
func CommOverhead(res *cluster.Result, ids []region.ID) map[region.ID][2]float64 {
	type acc struct{ cc, ce, wc, we float64 }
	sums := make(map[region.ID]*acc, len(ids))
	for _, id := range ids {
		sums[id] = &acc{}
	}
	for _, o := range res.Outcomes {
		if o.Region == o.Job.Home {
			continue
		}
		a, ok := sums[o.Region]
		if !ok {
			continue
		}
		a.cc += float64(o.Comm.Carbon())
		a.ce += float64(o.Compute.Carbon())
		a.wc += float64(o.Comm.Water())
		a.we += float64(o.Compute.Water())
	}
	out := make(map[region.ID][2]float64, len(ids))
	for id, a := range sums {
		var carbonPct, waterPct float64
		if a.ce > 0 {
			carbonPct = 100 * a.cc / a.ce
		}
		if a.we > 0 {
			waterPct = 100 * a.wc / a.we
		}
		out[id] = [2]float64{carbonPct, waterPct}
	}
	return out
}

// Table renders rows of cells as an aligned plain-text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[minInt(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Times formats a normalized multiplier like Table 2 ("1.09x").
func Times(v float64) string { return fmt.Sprintf("%.2fx", v) }
