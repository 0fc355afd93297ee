package core

import (
	"slices"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/workload"
)

// TestRoundLatencyMatchesModel checks the round's per-home RTT index:
// every candidate's transfer latency, for every home (one off the RTT
// table and outside the environment included), every region and every
// package size, must equal transfer.Model.Latency bit for bit — on the
// first round and on a second round that reuses the index's buffers.
func TestRoundLatencyMatchesModel(t *testing.T) {
	env := testEnv(t)
	ids := env.IDs()
	homes := append(slices.Clone(ids), region.ID("atlantis"))
	benchmarks := append(workload.Names(), "no-such-benchmark") // the default package size
	var jobs []*trace.Job
	for _, b := range benchmarks {
		for _, home := range homes {
			jobs = append(jobs, &trace.Job{
				ID: len(jobs), Submit: testStart, Benchmark: b, Home: home,
				Duration: 14 * time.Minute, Energy: 0.07, EstDuration: 14 * time.Minute, EstEnergy: 0.07,
			})
		}
	}
	ctx := testCtx(t, env, jobs, 0.5, nil)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		pending := ctx.Jobs[round:] // another first job: the index is rebuilt in another order
		cands := s.buildCandidates(ctx, ids, pending)
		for m, pj := range pending {
			job := pj.Job
			for n, id := range ids {
				want := ctx.Net.Latency(job.Home, id, workload.PackageMB(job.Benchmark))
				if got := cands[m][n].latency; got != want {
					t.Fatalf("round %d: %s from %s to %s: latency %v, model %v", round, job.Benchmark, job.Home, id, got, want)
				}
			}
		}
	}
}
