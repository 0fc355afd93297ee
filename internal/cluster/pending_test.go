package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// scriptedSim returns a simulator whose scheduler decides each round, at
// home, the jobs whose IDs the next script entry lists — pending or not,
// repeated or not — so a test can hand Sim.apply exactly the decisions it
// wants judged.
func scriptedSim(t *testing.T, script ...[]int) *Sim {
	t.Helper()
	sim, err := NewSim(Config{Env: testEnv(t)}, schedulerFunc(func(ctx *Context) ([]Decision, error) {
		ids := script[0]
		script = script[1:]
		out := make([]Decision, len(ids))
		for i, id := range ids {
			out[i] = Decision{Job: &trace.Job{ID: id, Home: region.Oregon, Benchmark: "dedup", Duration: time.Minute}, Region: region.Oregon}
			for _, pj := range ctx.Jobs {
				if pj.Job.ID == id {
					out[i].Job = pj.Job
				}
			}
		}
		return out, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func wantStepError(t *testing.T, sim *Sim, want string) {
	t.Helper()
	_, err := sim.Step(testStart)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Step error = %v, want one containing %q", err, want)
	}
}

func TestApplyRejectsJobNotPending(t *testing.T) {
	sim := scriptedSim(t, []int{0}, []int{1, 0})
	for _, j := range makeJobs(3, 0, region.Oregon) {
		sim.Submit(j, testStart)
	}
	if out, err := sim.Step(testStart); err != nil || len(out) != 1 {
		t.Fatalf("first round: %d outcomes, err %v", len(out), err)
	}
	// Job 0 left the queue last round: deciding it again is not a repeat
	// within a round, it is a job the simulator no longer holds.
	wantStepError(t, sim, "job 0 which is not pending")
}

func TestApplyRejectsJobDecidedTwiceInOneRound(t *testing.T) {
	sim := scriptedSim(t, []int{1, 2, 1})
	for _, j := range makeJobs(3, 0, region.Oregon) {
		sim.Submit(j, testStart)
	}
	wantStepError(t, sim, "job 1 twice in one round")
}

// The pending index is state, not per-round scratch, so every way the queue
// changes hands must carry it: a restored queue is decidable, jobs decided
// before the snapshot are not, Abandon empties it, and an abandoned job may
// be submitted again.
func TestPendingIndexFollowsSnapshotRestoreAndAbandon(t *testing.T) {
	jobs := makeJobs(6, 0, region.Oregon)
	first := scriptedSim(t, []int{1, 4})
	for _, j := range jobs {
		first.Submit(j, testStart)
	}
	if _, err := first.Step(testStart); err != nil {
		t.Fatal(err)
	}
	snap := first.PendingSnapshot()
	if len(snap) != 4 || snap[0].Deferrals != 1 {
		t.Fatalf("snapshot of %d jobs, first deferred %d times; want 4 jobs deferred once", len(snap), snap[0].Deferrals)
	}

	restored := scriptedSim(t, []int{5, 0}, []int{1})
	restored.Submit(jobs[1], testStart) // the restore replaces the queue, this index entry included
	restored.RestorePending(snap)
	if err := restored.RestoreBusy(first.BusySnapshot()); err != nil {
		t.Fatal(err)
	}
	out, err := restored.Step(testStart.Add(time.Minute))
	if err != nil || len(out) != 2 || out[0].Job.ID != 5 || out[1].Job.ID != 0 {
		t.Fatalf("deciding restored jobs 5 and 0: outcomes %v, err %v", out, err)
	}
	if restored.Pending() != 2 {
		t.Fatalf("%d pending after deciding 2 of 4 restored jobs", restored.Pending())
	}
	wantStepError(t, restored, "job 1 which is not pending") // decided before the snapshot

	again := scriptedSim(t, []int{2}, []int{3, 2})
	again.RestorePending(snap)
	if got := again.Abandon(); len(got) != 4 || again.Pending() != 0 {
		t.Fatalf("abandoned %d jobs, %d still pending", len(got), again.Pending())
	}
	again.Submit(jobs[2], testStart)
	if out, err := again.Step(testStart); err != nil || len(out) != 1 || out[0].Job.ID != 2 {
		t.Fatalf("deciding a job re-submitted after Abandon: outcomes %v, err %v", out, err)
	}
	again.Submit(jobs[2], testStart)
	wantStepError(t, again, "job 3 which is not pending") // abandoned, never re-submitted
}

// Compaction against a plain model of the queue: rounds decide random
// subsets (the head, the tail, scattered jobs, none, everything), arrivals
// join between rounds, and the queue is now and then carried through
// PendingSnapshot and RestorePending. Every round the scheduler sees the
// model's queue in the model's order, and a snapshot carries each job's
// deferrals as the model counted them.
func TestCompactionKeepsOrderAndDeferrals(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type modelJob struct{ id, deferrals int }
	var model []modelJob
	sim, err := NewSim(Config{Env: testEnv(t)}, schedulerFunc(func(ctx *Context) ([]Decision, error) {
		if len(ctx.Jobs) != len(model) {
			t.Fatalf("queue of %d jobs, model %d", len(ctx.Jobs), len(model))
		}
		for i, pj := range ctx.Jobs {
			if pj.Job.ID != model[i].id {
				t.Fatalf("queue position %d holds job %d, model job %d", i, pj.Job.ID, model[i].id)
			}
		}
		var dec []Decision
		keep := model[:0]
		for i, m := range model {
			var decide bool
			switch rng.Intn(4) {
			case 0:
				decide = rng.Intn(3) == 0
			case 1:
				decide = i < 3
			case 2:
				decide = i >= len(model)-3
			case 3:
				decide = rng.Intn(20) == 0
			}
			if decide {
				dec = append(dec, Decision{Job: ctx.Jobs[i].Job, Region: region.Oregon})
				continue
			}
			keep = append(keep, modelJob{m.id, m.deferrals + 1})
		}
		// Decisions need not come in queue order.
		rng.Shuffle(len(dec), func(i, j int) { dec[i], dec[j] = dec[j], dec[i] })
		model = keep
		return dec, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for round := range 300 {
		for range rng.Intn(8) {
			sim.Submit(&trace.Job{ID: id, Home: region.Oregon, Benchmark: "dedup", Duration: time.Microsecond, Energy: 0.01}, testStart)
			model = append(model, modelJob{id: id})
			id++
		}
		if _, err := sim.Step(testStart); err != nil {
			t.Fatal(err)
		}
		if round%7 == 0 {
			snap := sim.PendingSnapshot()
			for i, pj := range snap {
				if pj.Job.ID != model[i].id || pj.Deferrals != model[i].deferrals {
					t.Fatalf("round %d: snapshot position %d holds job %d deferred %d times, model job %d deferred %d",
						round, i, pj.Job.ID, pj.Deferrals, model[i].id, model[i].deferrals)
				}
			}
			if round%3 == 0 {
				sim.RestorePending(snap)
			}
		}
	}
	if id < 500 {
		t.Fatalf("only %d jobs submitted", id)
	}
}

// RestoreBusy takes a snapshot of exactly the Sim's regions and server
// counts or nothing: each defect is rejected, and no region is written
// before the whole snapshot has been checked.
func TestRestoreBusyRejectsMismatchedSnapshot(t *testing.T) {
	sim := scriptedSim(t, []int{0, 1, 2})
	for _, j := range makeJobs(3, 0, region.Oregon) {
		sim.Submit(j, testStart)
	}
	if _, err := sim.Step(testStart); err != nil {
		t.Fatal(err)
	}
	before := sim.BusySnapshot()
	// shifted is a well-formed snapshot that differs from before in every
	// region, so a partial write shows.
	shifted := func() map[region.ID][]time.Time {
		out := make(map[region.ID][]time.Time, len(before))
		for id, until := range before {
			out[id] = make([]time.Time, len(until))
			for i, b := range until {
				out[id][i] = b.Add(time.Hour)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		defect func(map[region.ID][]time.Time)
		want   string
	}{
		{"unknown region", func(m map[region.ID][]time.Time) { m["atlantis"] = nil }, `unknown region "atlantis"`},
		{"missing region", func(m map[region.ID][]time.Time) { delete(m, region.Zurich) }, `without region "zurich"`},
		{"too few servers", func(m map[region.ID][]time.Time) { m[region.Milan] = m[region.Milan][1:] }, `region "milan" with`},
		{"too many servers", func(m map[region.ID][]time.Time) { m[region.Milan] = append(m[region.Milan], testStart) }, `region "milan" with`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := shifted()
			c.defect(bad)
			if err := sim.RestoreBusy(bad); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreBusy error = %v, want one containing %q", err, c.want)
			}
			after := sim.BusySnapshot()
			for id, until := range before {
				for srv, b := range until {
					if !after[id][srv].Equal(b) {
						t.Fatalf("rejected restore wrote region %s server %d: %v, was %v", id, srv, after[id][srv], b)
					}
				}
			}
		})
	}
}

// BenchmarkSimStepBacklog times one round of the simulator's own work over a
// standing backlog: commit 25 decisions, compact the queue, take 25 arrivals.
func BenchmarkSimStepBacklog(b *testing.B) {
	env := testEnv(b)
	// The trivial scheduler: the 25 jobs at the head of the queue, at home.
	first25 := schedulerFunc(func(ctx *Context) ([]Decision, error) {
		out := make([]Decision, 0, 25)
		for _, pj := range ctx.Jobs[:min(25, len(ctx.Jobs))] {
			out = append(out, Decision{Job: pj.Job, Region: pj.Job.Home})
		}
		return out, nil
	})
	for _, pending := range []int{1000, 15000} {
		b.Run(fmt.Sprintf("pending=%dk", pending/1000), func(b *testing.B) {
			sim, err := NewSim(Config{Env: env}, first25)
			if err != nil {
				b.Fatal(err)
			}
			next := 0
			submit := func(n int) {
				for range n {
					// Microsecond jobs: the round clock can stand still
					// without the servers' queues leaving the horizon.
					sim.Submit(&trace.Job{ID: next, Benchmark: "dedup", Home: env.Regions[next%len(env.Regions)].ID,
						Duration: time.Microsecond, Energy: 0.05}, testStart)
					next++
				}
			}
			submit(pending)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sim.Step(testStart); err != nil {
					b.Fatal(err)
				}
				submit(25)
			}
		})
	}
}
