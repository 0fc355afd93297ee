package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// BenchmarkFleetReplay measures aggregate accelerated serving throughput
// at 1, 2, and 4 shards: a fixed trace is submitted up front and drained
// as fast as the shard round loops allow, the serving layer's peak-rate
// mode. The reported decisions/s is the scale-out headline (the repo's
// benchmark measures the gateway in fleet-drain, see bench/README.md).
// Shards scale two ways: round loops (and
// their MILP solves) run concurrently across cores, and each shard's
// rounds optimize over its partition only, shrinking the per-round
// problem — the second effect shows even on a single core.
func BenchmarkFleetReplay(b *testing.B) {
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, testStart, 24*2, 21)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: testStart, Duration: 24 * time.Hour,
		JobsPerDay: 30000, Regions: env.IDs(), DurationScale: 0.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fl, err := New(Config{
					Env: env, NewScheduler: coreFactory(b), Shards: shards,
					Tolerance: 0.5, Round: time.Minute,
					QueueCap: len(jobs) + 1, DecisionLogCap: len(jobs) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, j := range jobs {
					if _, err := fl.Submit(specFor(j)); err != nil {
						b.Fatal(err)
					}
				}
				fl.Start()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
				if err := fl.Drain(ctx); err != nil {
					cancel()
					b.Fatal(err)
				}
				cancel()
				b.StopTimer()
				st := fl.Status()
				if st.Decisions != uint64(len(jobs)) || st.Lost != 0 {
					b.Fatalf("decided %d of %d (lost %d)", st.Decisions, len(jobs), st.Lost)
				}
				fl.Stop()
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}
