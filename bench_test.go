// Root benchmark harness: one benchmark per table and figure of the
// WaterWise paper (see DESIGN.md's per-experiment index), plus the design
// ablations. Each benchmark regenerates its paper artifact end to end —
// environment synthesis, trace replay, scheduling, accounting — at a
// reduced "bench" scale; `cmd/experiments -run all` prints the same
// artifacts at quick scale and `-paper` replays the full 230k-job setup.
//
//	go test -bench=. -benchmem
package waterwise

import (
	"testing"
	"time"

	"waterwise/internal/experiments"
)

// benchScale keeps every figure regeneration fast enough for iterated
// benchmarking while preserving capacity pressure (the region-spillover
// effects need a non-trivial arrival rate).
func benchScale() experiments.Scale {
	return experiments.Scale{
		Days: 1, JobsPerDay: 2500, DurationScale: 1, Seed: 7, Tick: time.Minute,
	}
}

// benchExperiment runs one registered paper experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(scale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkFig1EnergySources regenerates Fig. 1 (per-source carbon
// intensity and EWIF characterization).
func BenchmarkFig1EnergySources(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2RegionalCharacterization regenerates Fig. 2 (regional
// CI/EWIF/WUE/WSF averages and the Oregon CI/WI time series).
func BenchmarkFig2RegionalCharacterization(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3GreedyOptOpportunity regenerates Fig. 3 (greedy-optimal
// savings vs delay tolerance, job distribution at 10%).
func BenchmarkFig3GreedyOptOpportunity(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig5MainResult regenerates Fig. 5 (WaterWise vs the greedy
// oracles across delay tolerances on the Borg-like trace).
func BenchmarkFig5MainResult(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6WRIData regenerates Fig. 6 (the World Resources Institute
// water-dataset robustness study).
func BenchmarkFig6WRIData(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Ecovisor regenerates Fig. 7 (Ecovisor comparison on both
// datasets).
func BenchmarkFig7Ecovisor(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8WeightSensitivity regenerates Fig. 8 (λ_CO2 sweep).
func BenchmarkFig8WeightSensitivity(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9AlibabaTrace regenerates Fig. 9 (Alibaba-like trace).
func BenchmarkFig9AlibabaTrace(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10LoadBalancers regenerates Fig. 10 (Round-Robin/Least-Load
// comparison).
func BenchmarkFig10LoadBalancers(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Utilization regenerates Fig. 11 (5/15/25% utilization).
func BenchmarkFig11Utilization(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12RegionAvailability regenerates Fig. 12 (region subsets).
func BenchmarkFig12RegionAvailability(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13DecisionOverhead regenerates Fig. 13 (decision-making
// overhead over time, Borg vs Alibaba).
func BenchmarkFig13DecisionOverhead(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkTable2ServiceTime regenerates Table 2 (normalized service time
// and delay-tolerance violations).
func BenchmarkTable2ServiceTime(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTable3CommOverhead regenerates Table 3 (communication overhead
// from Oregon to each region).
func BenchmarkTable3CommOverhead(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkSensitivityPerturbation regenerates the ±10% embodied-carbon /
// water-intensity and 2x-rate robustness paragraphs of Section 6.
func BenchmarkSensitivityPerturbation(b *testing.B) { benchExperiment(b, "sens") }

// BenchmarkAblations exercises the design-choice ablations DESIGN.md calls
// out (MILP vs greedy controller, history learner, slack manager, σ).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablate") }

// BenchmarkExtensions exercises the §7 performance/cost-objective
// extensions.
func BenchmarkExtensions(b *testing.B) { benchExperiment(b, "ext") }

// BenchmarkSchedulingRound times the WaterWise Optimization Decision
// Controller (the quantity behind Fig. 13) on a small batch: each
// iteration is one env.Run of 60 jobs all submitted at the environment's
// start, whose rounds are solved as transportation problems.
func BenchmarkSchedulingRound(b *testing.B) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := env.GenerateBorgTrace(TraceConfig{Days: 1, JobsPerDay: 3000, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	jobs = jobs[:60]
	for _, j := range jobs {
		j.Submit = env.env.Start
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewScheduler(SchedulerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := env.Run(s, jobs, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != len(jobs) {
			b.Fatalf("completed %d/%d", len(res.Outcomes), len(jobs))
		}
	}
}
