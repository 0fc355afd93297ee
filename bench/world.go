package main

import (
	"bytes"
	"fmt"
	"time"

	"waterwise"
	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/footprint"
	"waterwise/internal/milp"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/transfer"
)

// simStart is the paper's data window; every generated world begins here.
var simStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// tolerance is the paper's default delay tolerance (TOL = 50%).
const tolerance = 0.5

// world is one generated environment with the stateless models every
// workload shares.
type world struct {
	env *region.Environment
	net *transfer.Model
	fp  *footprint.Model
}

// newWorld generates the five paper regions with the given server count
// over hours of grid and weather series.
func newWorld(seed int64, servers, hours int) (*world, error) {
	regions := region.Defaults()
	for _, r := range regions {
		r.Servers = servers
	}
	env, err := region.NewEnvironment(regions, energy.Table, simStart, hours, seed)
	if err != nil {
		return nil, err
	}
	return &world{env: env, net: transfer.New(), fp: footprint.NewModel(footprint.NoPerturbation)}, nil
}

func (w *world) clusterConfig() cluster.Config {
	return cluster.Config{Env: w.env, Net: w.net, FP: w.fp, Tolerance: tolerance}
}

// traceSeed derives the trace generator's seed from the run seed, so the
// environment and the trace do not share a random stream.
func traceSeed(seed int64) int64 { return seed*7919 + 11 }

// quantize round-trips a trace through the CSV codec, which carries
// milliseconds: afterwards JSON float seconds and wire nanoseconds both
// reproduce every job exactly, as the repo's equivalence tests rely on.
func quantize(jobs []*trace.Job) ([]*trace.Job, error) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, jobs); err != nil {
		return nil, err
	}
	return trace.ReadCSV(&buf)
}

// specFor is the submission a replay client sends for a trace job.
func specFor(j *trace.Job) server.JobSpec {
	id := j.ID
	return server.JobSpec{
		ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
		DurationSec:    j.Duration.Seconds(),
		EnergyKWh:      float64(j.Energy),
		EstDurationSec: j.EstDuration.Seconds(),
		EstEnergyKWh:   float64(j.EstEnergy),
	}
}

// solverCounters is what the WaterWise controller exports about itself.
type solverCounters interface {
	Stats() (rounds, softened int)
	SolverStats() milp.Stats
}

// offlineScheduler is the scheduler offline replays use: the facade's
// defaults, with MaxBatch raised only for the large deployment.
func offlineScheduler(maxBatch int) (cluster.Scheduler, error) {
	return waterwise.NewScheduler(waterwise.SchedulerConfig{MaxBatch: maxBatch})
}

// servedScheduler is the scheduler cmd/waterwised builds by default: one
// solver worker and the cross-round warm start on.
func servedScheduler() (cluster.Scheduler, error) {
	return waterwise.NewScheduler(waterwise.SchedulerConfig{
		LambdaCarbon: 0.5, LambdaWater: 0.5, SolverWorkers: 1, CrossRoundWarmStart: true,
	})
}

// decisionKey is the part of an outcome or a logged decision that must be
// identical between two runs that claim to be decision-equal.
type decisionKey struct {
	job           int
	region        region.ID
	start, finish int64
}

func outcomeKey(o *cluster.JobOutcome) decisionKey {
	return decisionKey{o.Job.ID, o.Region, o.Start.UnixNano(), o.Finish.UnixNano()}
}

func decisionKeyOf(d *server.Decision) decisionKey {
	return decisionKey{d.JobID, d.Region, d.Start.UnixNano(), d.Finish.UnixNano()}
}

// sameDecisions checks that got holds exactly the decisions of want's
// outcomes, job for job.
func sameDecisions(want *cluster.Result, got map[int]decisionKey) error {
	if len(got) != len(want.Outcomes) {
		return fmt.Errorf("%d decisions, offline run has %d", len(got), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		w := outcomeKey(&want.Outcomes[i])
		if g, ok := got[w.job]; !ok || g != w {
			return fmt.Errorf("job %d: got %+v, offline run has %+v", w.job, g, w)
		}
	}
	return nil
}
