package sched

import (
	"math"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/workload"
)

// Objective selects which footprint a greedy oracle minimizes.
type Objective int

const (
	// MinCarbon minimizes the carbon footprint (Carbon-Greedy-Opt).
	MinCarbon Objective = iota
	// MinWater minimizes the water footprint (Water-Greedy-Opt).
	MinWater
)

// GreedyOpt is the paper's Carbon-Greedy-Opt / Water-Greedy-Opt: an
// infeasible oracle that knows each job's true execution time and the
// future carbon/water intensity of every region. For each job it
// brute-forces the (region x start-delay) space within the delay-tolerance
// bound and greedily commits the single-objective optimum. It is greedy,
// not globally optimal: like the paper's scheme, it decides jobs in arrival
// order without knowledge of future arrivals.
type GreedyOpt struct {
	obj Objective
	// delaySteps is the number of deliberate-delay candidates probed per
	// region within the slack budget.
	delaySteps int
}

// NewCarbonGreedyOpt returns the carbon-minimizing oracle.
func NewCarbonGreedyOpt() *GreedyOpt { return &GreedyOpt{obj: MinCarbon, delaySteps: 8} }

// NewWaterGreedyOpt returns the water-minimizing oracle.
func NewWaterGreedyOpt() *GreedyOpt { return &GreedyOpt{obj: MinWater, delaySteps: 8} }

// Name implements cluster.Scheduler.
func (g *GreedyOpt) Name() string {
	if g.obj == MinCarbon {
		return "carbon-greedy-opt"
	}
	return "water-greedy-opt"
}

// Schedule implements cluster.Scheduler.
func (g *GreedyOpt) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	ids := ctx.Env.IDs()
	out := make([]cluster.Decision, 0, len(ctx.Jobs))
	// Intra-batch capacity commitments, approximated per region: FreeAt
	// reflects only prior rounds.
	committed := make(map[region.ID]int, len(ids))

	for _, pj := range ctx.Jobs {
		job := pj.Job
		pkg := workload.PackageMB(job.Benchmark)
		// Oracle privilege: use the true duration and energy.
		dur, energy := job.Duration, job.Energy
		// Remaining slack: the tolerance budget minus time already spent
		// waiting (submission-to-now), with a 5% safety margin so tick
		// quantization cannot push the job over its tolerance.
		slack := time.Duration(0.95*ctx.Tolerance*float64(dur)) - ctx.Now.Sub(job.Submit)

		bestScore := math.Inf(1)
		var bestRegion region.ID
		var bestStart time.Time
		found := false

		for _, id := range ids {
			lat := ctx.Net.Latency(job.Home, id, pkg)
			maxDelay := slack - lat
			if maxDelay < 0 {
				if id == job.Home {
					maxDelay = 0 // home is always reachable immediately
				} else {
					continue // migrating alone would violate the tolerance
				}
			}
			for k := 0; k <= g.delaySteps; k++ {
				delay := time.Duration(float64(maxDelay) * float64(k) / float64(g.delaySteps))
				start := ctx.Now.Add(lat + delay)
				if ctx.FreeAt(id, start, dur)-committed[id] <= 0 {
					continue
				}
				carbon, water, ok := estimate(ctx, id, start, energy, dur)
				if !ok {
					continue
				}
				score := float64(carbon)
				if g.obj == MinWater {
					score = float64(water)
				}
				if score < bestScore {
					bestScore = score
					bestRegion = id
					bestStart = start
					found = true
				}
			}
		}
		if !found {
			// All regions saturated: fall back to home now; the simulator
			// will queue the job there.
			bestRegion = job.Home
			bestStart = ctx.Now
		}
		committed[bestRegion]++
		out = append(out, cluster.Decision{Job: job, Region: bestRegion, StartAt: bestStart})
	}
	return out, nil
}
