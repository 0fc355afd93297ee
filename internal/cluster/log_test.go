package cluster

import (
	"slices"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// spreadJobs is makeJobs with homes rotating over every region, so rounds
// decide jobs of several regions at once.
func spreadJobs(t *testing.T, n int, gap time.Duration) []*trace.Job {
	jobs := makeJobs(n, gap, region.Oregon)
	regions := testEnv(t).Regions
	for i, j := range jobs {
		j.Home = regions[i%len(regions)].ID
	}
	return jobs
}

// TestSteppedSimMatchesRun drives a Sim round by round with no size hint,
// so its outcome log spans more than three blocks, and checks what each
// Step returns and what Result returns mid-run and at the end against the
// offline Run of the same trace, whose log is one block.
func TestSteppedSimMatchesRun(t *testing.T) {
	const n = 15000 // 3 full blocks and a partial one
	jobs := spreadJobs(t, n, time.Second)
	cfg := Config{Env: testEnv(t), Tolerance: 0.5}
	want, err := Run(cfg, homeScheduler{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Outcomes) != n {
		t.Fatalf("Run decided %d of %d jobs", len(want.Outcomes), n)
	}

	sim, err := NewSim(cfg, homeScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	var stepped []JobOutcome // every Step's outcomes, copied as returned
	now, next, midChecked := cfg.Env.Start, 0, false
	for next < n || sim.Pending() > 0 {
		var submitted []int
		for next < n && !jobs[next].Submit.After(now) {
			sim.Submit(jobs[next], now)
			submitted = append(submitted, jobs[next].ID)
			next++
		}
		out, err := sim.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		// homeScheduler decides the whole queue, so a round's outcomes are
		// exactly the jobs submitted for it.
		var got []int
		for _, o := range out {
			got = append(got, o.Job.ID)
		}
		if !slices.Equal(got, submitted) {
			t.Fatalf("Step at %v returned jobs %v, want %v", now, got, submitted)
		}
		stepped = append(stepped, out...)
		if !midChecked && len(stepped) >= n/2 {
			midChecked = true
			mid := sim.Result()
			if len(mid.Outcomes) != len(stepped) {
				t.Fatalf("mid-run Result holds %d outcomes, %d decided", len(mid.Outcomes), len(stepped))
			}
			if !slices.IsSortedFunc(mid.Outcomes, byJobID) {
				t.Fatal("mid-run Result outcomes not in job-ID order")
			}
		}
		now = now.Add(time.Minute)
	}
	got := sim.Result()
	if !slices.Equal(got.Outcomes, want.Outcomes) {
		t.Fatalf("stepped Result differs from Run: %d vs %d outcomes", len(got.Outcomes), len(want.Outcomes))
	}
	slices.SortFunc(stepped, byJobID)
	if !slices.Equal(stepped, want.Outcomes) {
		t.Fatal("Step returns, joined and sorted, differ from Run's outcomes")
	}
	if len(got.Ticks) != len(want.Ticks) || len(got.Unscheduled) != len(want.Unscheduled) {
		t.Fatalf("stepped: %d ticks, %d unscheduled; Run: %d, %d",
			len(got.Ticks), len(got.Unscheduled), len(want.Ticks), len(want.Unscheduled))
	}
	for i, tk := range got.Ticks {
		if w := want.Ticks[i]; !tk.At.Equal(w.At) || tk.Batch != w.Batch || tk.Decided != w.Decided {
			t.Fatalf("tick %d: %+v, Run has %+v", i, tk, w)
		}
	}
}

func byJobID(a, b JobOutcome) int { return a.Job.ID - b.Job.ID }
