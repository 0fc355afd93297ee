package core

import (
	"hash/fnv"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/sched"
	"waterwise/internal/trace"
)

// placementFingerprint hashes (job ID, region, start, finish) of every
// outcome in job-ID order.
func placementFingerprint(res *cluster.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		put(int64(o.Job.ID))
		h.Write([]byte(o.Region))
		put(o.Start.UnixNano())
		put(o.Finish.UnixNano())
	}
	return h.Sum64()
}

// wholeRun is one of the whole runs the pinned placements replay: servers
// per region for each of the five default regions, a Borg-like trace of
// the given length and rate (seed 17), and tolerance 50%.
type wholeRun struct {
	servers    int
	hours      int
	jobsPerDay float64
	durScale   float64
	maxBatch   int // WaterWise's MaxBatch; 0 keeps the default
}

// The two WaterWise shapes the pinned placements cover.
var (
	// The large-deployment shape: thousand-job rounds on 400 servers.
	largeRun = wholeRun{servers: 400, hours: 1, jobsPerDay: 1e6, durScale: 0.15, maxBatch: 1000}
	// The paper's regime, where regions fill up.
	paperRun = wholeRun{servers: 35, hours: 24, jobsPerDay: 23000, durScale: 0.3}
)

// waterwise returns a WaterWise scheduler for the run's batch size.
func (w wholeRun) waterwise(t *testing.T) *Scheduler {
	t.Helper()
	cfg := DefaultConfig()
	if w.maxBatch > 0 {
		cfg.MaxBatch = w.maxBatch
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run replays the run's trace through cluster.Run under sched and fails
// unless every job ran.
func (w wholeRun) run(t *testing.T, sched cluster.Scheduler) *cluster.Result {
	t.Helper()
	regions := region.Defaults()
	for i := range regions {
		regions[i].Servers = w.servers
	}
	env, err := region.NewEnvironment(regions, energy.Table, testStart, w.hours+72, 5)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: testStart, Duration: time.Duration(w.hours) * time.Hour, JobsPerDay: w.jobsPerDay,
		Regions: env.IDs(), DurationScale: w.durScale, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Env: env, Tolerance: 0.5}, sched, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(jobs) || len(res.Unscheduled) != 0 {
		t.Fatalf("%d jobs: %d outcomes, %d unscheduled", len(jobs), len(res.Outcomes), len(res.Unscheduled))
	}
	return res
}

// TestWholeRunPlacementsPinned replays three whole runs through cluster.Run
// and compares a hash of every placement with a constant; a change to
// where or when any job runs fails here. The constants were produced by
// setting every want to 0 and taking the hashes the failures reported:
// carbon-greedy-opt's at commit ac586b0, the last one whose machine model
// scanned a per-server next-free array, and the two WaterWise ones when
// rounds began to be solved as transportation problems, whose tie-breaking
// picks other optima of equal objective than the simplex did.
func TestWholeRunPlacementsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		name  string
		run   wholeRun
		sched func(*testing.T) cluster.Scheduler
		want  uint64
	}{
		{"waterwise/5x400", largeRun, func(t *testing.T) cluster.Scheduler { return largeRun.waterwise(t) }, 0x3b1e94decfb6efc0},
		{"waterwise/5x35", paperRun, func(t *testing.T) cluster.Scheduler { return paperRun.waterwise(t) }, 0x924c7783175b9cdc},
		// An oracle that asks ctx.FreeAt about every candidate start.
		{"carbon-greedy-opt/5x35", paperRun, func(*testing.T) cluster.Scheduler { return sched.NewCarbonGreedyOpt() }, 0xb5eb7ea1bcf89d48},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := c.run.run(t, c.sched(t))
			if got := placementFingerprint(res); got != c.want {
				t.Errorf("%d jobs placed with fingerprint %#x, want %#x", len(res.Outcomes), got, c.want)
			}
		})
	}
}
