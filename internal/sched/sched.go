// Package sched implements the scheduling policies WaterWise is compared
// against in the paper's evaluation (Section 5, "Relevant Techniques"):
//
//   - Baseline: every job runs in its home region, carbon- and water-unaware;
//   - Round-Robin and Least-Load: classic load balancers, also unaware;
//   - Carbon-Greedy-Opt and Water-Greedy-Opt: infeasible oracle schedulers
//     with future knowledge of carbon/water intensity, optimizing a single
//     footprint within the delay-tolerance bound;
//   - Ecovisor: a reimplementation of the carbon scaler of Souza et al.
//     (ASPLOS'23) — home-region only, operational-carbon focused, using
//     solar-charged virtual batteries and power scaling.
//
// The WaterWise scheduler itself lives in internal/core.
package sched

import (
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/units"
)

// Baseline schedules every job in its home region immediately. It is the
// carbon- and water-unaware reference all savings are reported against.
type Baseline struct{}

// NewBaseline returns the baseline scheduler.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements cluster.Scheduler.
func (*Baseline) Name() string { return "baseline" }

// Schedule implements cluster.Scheduler.
func (*Baseline) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	out := make([]cluster.Decision, 0, len(ctx.Jobs))
	for _, pj := range ctx.Jobs {
		out = append(out, cluster.Decision{Job: pj.Job, Region: pj.Job.Home})
	}
	return out, nil
}

// RoundRobin distributes jobs across regions in circular order, oblivious
// to carbon and water conditions.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements cluster.Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Schedule implements cluster.Scheduler.
func (s *RoundRobin) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	ids := ctx.Env.IDs()
	out := make([]cluster.Decision, 0, len(ctx.Jobs))
	for _, pj := range ctx.Jobs {
		r := ids[s.next%len(ids)]
		s.next++
		out = append(out, cluster.Decision{Job: pj.Job, Region: r})
	}
	return out, nil
}

// LeastLoad sends each job to the region with the most free servers,
// balancing utilization without sustainability awareness.
type LeastLoad struct{}

// NewLeastLoad returns a least-load scheduler.
func NewLeastLoad() *LeastLoad { return &LeastLoad{} }

// Name implements cluster.Scheduler.
func (*LeastLoad) Name() string { return "least-load" }

// Schedule implements cluster.Scheduler.
func (*LeastLoad) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	free := make(map[region.ID]int, len(ctx.Free))
	for id, f := range ctx.Free {
		free[id] = f
	}
	ids := ctx.Env.IDs()
	out := make([]cluster.Decision, 0, len(ctx.Jobs))
	for _, pj := range ctx.Jobs {
		best := ids[0]
		for _, id := range ids[1:] {
			if free[id] > free[best] {
				best = id
			}
		}
		free[best]--
		out = append(out, cluster.Decision{Job: pj.Job, Region: best})
	}
	return out, nil
}

// estimate scores a placement candidate: the carbon and water footprint of
// running a job with the given energy/duration under the snapshot at start.
func estimate(ctx *cluster.Context, id region.ID, start time.Time, energy units.KWh, dur time.Duration) (units.GramsCO2, units.Liters, bool) {
	snap, ok := ctx.Env.Snapshot(id, start)
	if !ok {
		return 0, 0, false
	}
	fp := ctx.FP.ForJob(snap, energy, dur)
	return fp.Carbon(), fp.Water(), true
}
