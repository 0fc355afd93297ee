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

// TestWholeRunPlacementsPinned replays three whole runs through cluster.Run
// and compares a hash of every placement with a constant. The constants
// were produced by copying this file into a checkout of commit ac586b0 —
// the last one whose machine model scanned a per-server next-free array —
// with every want set to 0, and taking the hashes its failures reported; a
// change to where or when any job runs fails here. The solver runs on one worker: a
// worker count that follows the host's cores may pick a different optimum
// of equal objective.
func TestWholeRunPlacementsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	waterwise := func(maxBatch int) cluster.Scheduler {
		cfg := DefaultConfig()
		cfg.Solver.Workers = 1
		if maxBatch > 0 {
			cfg.MaxBatch = maxBatch
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name       string
		servers    int
		hours      int
		jobsPerDay float64
		durScale   float64
		sched      cluster.Scheduler
		want       uint64
	}{
		// The large-deployment shape: thousand-job rounds on 400 servers.
		{"waterwise/5x400", 400, 1, 1e6, 0.15, waterwise(1000), 0xeaed408a3e4b32d5},
		// The paper's regime, where regions fill up.
		{"waterwise/5x35", 35, 24, 23000, 0.3, waterwise(0), 0x7fb2a9adbc5bfae2},
		// An oracle that asks ctx.FreeAt about every candidate start.
		{"carbon-greedy-opt/5x35", 35, 24, 23000, 0.3, sched.NewCarbonGreedyOpt(), 0xb5eb7ea1bcf89d48},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			regions := region.Defaults()
			for i := range regions {
				regions[i].Servers = c.servers
			}
			env, err := region.NewEnvironment(regions, energy.Table, testStart, c.hours+72, 5)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := trace.GenerateBorgLike(trace.Config{
				Start: testStart, Duration: time.Duration(c.hours) * time.Hour, JobsPerDay: c.jobsPerDay,
				Regions: env.IDs(), DurationScale: c.durScale, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Run(cluster.Config{Env: env, Tolerance: 0.5}, c.sched, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outcomes) != len(jobs) || len(res.Unscheduled) != 0 {
				t.Fatalf("%d jobs: %d outcomes, %d unscheduled", len(jobs), len(res.Outcomes), len(res.Unscheduled))
			}
			if got := placementFingerprint(res); got != c.want {
				t.Errorf("%d jobs placed with fingerprint %#x, want %#x", len(jobs), got, c.want)
			}
		})
	}
}
