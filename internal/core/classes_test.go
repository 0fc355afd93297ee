package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transport"
	"waterwise/internal/units"
	"waterwise/internal/workload"
)

// buildCandidates is the per-job view of a round's class rows: row m is
// the candidate row of job m's class.
func (s *Scheduler) buildCandidates(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) [][]candidate {
	s.scoreClasses(ctx, ids, jobs)
	rows := make([][]candidate, len(jobs))
	for m := range jobs {
		rows[m], _ = s.classRows(m, len(ids))
	}
	return rows
}

// perJobRows scores every (job, region) pair of a batch one job at a time,
// straight from the transfer, environment and footprint models: the way
// rounds were scored before jobs were grouped into classes.
func perJobRows(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) [][]candidate {
	rows := make([][]candidate, len(jobs))
	for m, pj := range jobs {
		job := pj.Job
		pkg := workload.PackageMB(job.Benchmark)
		row := make([]candidate, len(ids))
		for n, id := range ids {
			lat := ctx.Net.Latency(job.Home, id, pkg)
			snap, ok := ctx.Env.Snapshot(id, ctx.Now.Add(lat))
			if !ok {
				row[n] = candidate{carbon: math.Inf(1), water: math.Inf(1), ratio: math.Inf(1)}
				continue
			}
			fp := ctx.FP.ForJob(snap, job.EstEnergy, job.EstDuration)
			carbon := float64(fp.Carbon())
			water := float64(fp.Water())
			if job.Home != id {
				commFP := ctx.FP.ForJob(snap, ctx.Net.Energy(job.Home, id, pkg), 0)
				carbon += float64(commFP.Carbon())
				water += float64(commFP.Water())
			}
			ratio := 0.0
			if job.EstDuration > 0 {
				ratio = float64(lat) / float64(job.EstDuration)
			}
			usd := 0.0
			if r := ctx.Env.Region(id); r != nil {
				usd = r.EnergyPriceUSD * float64(job.EstEnergy) * snap.PUE
			}
			row[n] = candidate{carbon: carbon, water: water, ratio: ratio, cost: usd, latency: lat}
		}
		rows[m] = row
	}
	return rows
}

// perJobObjective returns the Eq. 8 objective of every pair of the rows,
// each row normalized by its own maxima.
func perJobObjective(s *Scheduler, ids []region.ID, rows [][]candidate) [][]float64 {
	cfg := s.cfg
	obj := make([][]float64, len(rows))
	for m, row := range rows {
		mx := rowMax{}
		for _, c := range row {
			if !math.IsInf(c.carbon, 1) && c.carbon > mx.carbon {
				mx.carbon = c.carbon
			}
			if !math.IsInf(c.water, 1) && c.water > mx.water {
				mx.water = c.water
			}
			if !math.IsInf(c.ratio, 1) && c.ratio > mx.ratio {
				mx.ratio = c.ratio
			}
			if c.cost > mx.usd {
				mx.usd = c.cost
			}
		}
		if mx.carbon == 0 {
			mx.carbon = 1
		}
		if mx.water == 0 {
			mx.water = 1
		}
		obj[m] = make([]float64, len(row))
		for n, c := range row {
			cost := cfg.LambdaCarbon*c.carbon/mx.carbon + cfg.LambdaWater*c.water/mx.water
			if !cfg.DisableHistory {
				cost += cfg.LambdaRef * (cfg.LambdaCarbon*s.refCarbon(ids[n]) + cfg.LambdaWater*s.refWater(ids[n]))
			}
			if cfg.PerfWeight > 0 && mx.ratio > 0 {
				cost += cfg.PerfWeight * c.ratio / mx.ratio
			}
			if cfg.CostWeight > 0 && mx.usd > 0 {
				cost += cfg.CostWeight * c.cost / mx.usd
			}
			obj[m][n] = cost
		}
	}
	return obj
}

// perJobTable builds a round's M×N cost table the per-job way, in hard or
// soft mode.
func perJobTable(s *Scheduler, ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob, soft bool) []float64 {
	rows := perJobRows(ctx, ids, jobs)
	obj := perJobObjective(s, ids, rows)
	N := len(ids)
	cost := make([]float64, len(jobs)*N)
	for m, pj := range jobs {
		rhs := remainingTolerance(ctx, pj.Job)
		for n := range ids {
			c, ratio := obj[m][n], rows[m][n].ratio
			switch {
			case math.IsInf(c, 1) || math.IsInf(ratio, 1):
				c = math.Inf(1)
			case ratio > rhs && !soft:
				c = math.Inf(1)
			case ratio > rhs && soft:
				c += s.cfg.PenaltySigma * (ratio - rhs)
			}
			cost[m*N+n] = c
		}
	}
	return cost
}

// perJobGreedy places a batch with the greedy controller the per-job way.
func perJobGreedy(s *Scheduler, ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) []cluster.Decision {
	rows := perJobRows(ctx, ids, jobs)
	obj := perJobObjective(s, ids, rows)
	left := make([]int, len(ids))
	for n, id := range ids {
		left[n] = ctx.Free[id]
	}
	var out []cluster.Decision
	for m, pj := range jobs {
		rhs := remainingTolerance(ctx, pj.Job)
		best, bestCost := -1, math.Inf(1)
		for n := range ids {
			if left[n] > 0 && rows[m][n].ratio <= rhs && obj[m][n] < bestCost {
				best, bestCost = n, obj[m][n]
			}
		}
		if best == -1 {
			for n := range ids {
				if left[n] <= 0 {
					continue
				}
				if c := obj[m][n] + s.cfg.PenaltySigma*math.Max(0, rows[m][n].ratio-rhs); c < bestCost {
					best, bestCost = n, c
				}
			}
		}
		if best >= 0 {
			left[best]--
			out = append(out, cluster.Decision{Job: pj.Job, Region: ids[best]})
		}
	}
	return out
}

// perJobCheck runs the controller and checks every round against the
// per-job reference: each solve's cost table bit for bit and its
// placement, or, under the greedy controller, the round's decisions.
type perJobCheck struct {
	t   *testing.T
	s   *Scheduler
	ref transport.Solver
	// The batch being placed, the solves of it so far, and the greedy
	// reference's decisions for it.
	ctx    *cluster.Context
	ids    []region.ID
	jobs   []*cluster.PendingJob
	solves int
	greedy []cluster.Decision
	// Totals over the run.
	rounds, hard, soft, jobsScored, classes int
}

func newPerJobCheck(t *testing.T, cfg Config) *perJobCheck {
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &perJobCheck{t: t, s: s}
	s.checkBatch = func(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) {
		c.ctx, c.ids, c.jobs, c.solves = ctx, ids, jobs, 0
		c.rounds++
		if cfg.GreedyController {
			c.greedy = perJobGreedy(s, ctx, ids, jobs)
		}
	}
	s.checkRound = c.checkRound
	return c
}

func (c *perJobCheck) Name() string { return c.s.Name() }

func (c *perJobCheck) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	c.jobs = nil
	dec, err := c.s.Schedule(ctx)
	if c.jobs != nil {
		c.jobsScored += len(c.jobs)
		c.classes += len(c.s.classFirst)
	}
	if c.jobs != nil && c.s.cfg.GreedyController {
		if len(dec) != len(c.greedy) {
			c.t.Fatalf("round %d: greedy placed %d jobs, per-job reference %d", c.rounds, len(dec), len(c.greedy))
		}
		for i, d := range dec {
			if w := c.greedy[i]; d.Job != w.Job || d.Region != w.Region {
				c.t.Fatalf("round %d: greedy placed job %d in %s, per-job reference job %d in %s", c.rounds, d.Job.ID, d.Region, w.Job.ID, w.Region)
			}
		}
	}
	return dec, err
}

// checkRound compares one solve with the per-job reference. A round's
// first solve is hard unless the queue outgrew capacity, and any later
// solve of it is soft (Algorithm 1).
func (c *perJobCheck) checkRound(cost []float64, caps []int, st transport.Status, assign []int) {
	total := 0
	for _, v := range caps {
		total += v
	}
	soft := c.solves > 0 || len(c.ctx.Jobs) > total
	c.solves++
	if soft {
		c.soft++
	} else {
		c.hard++
	}
	want := perJobTable(c.s, c.ctx, c.ids, c.jobs, soft)
	if len(cost) != len(want) {
		c.t.Fatalf("round %d: cost table of %d entries, per-job %d", c.rounds, len(cost), len(want))
	}
	N := len(caps)
	for v := range want {
		if math.Float64bits(cost[v]) != math.Float64bits(want[v]) {
			job := c.jobs[v/N].Job
			c.t.Fatalf("round %d (soft %v): job %d (%s from %s, est %v / %v) in %s costs %v, per-job %v",
				c.rounds, soft, job.ID, job.Benchmark, job.Home, job.EstEnergy, job.EstDuration, c.ids[v%N], cost[v], want[v])
		}
	}
	wantAssign := make([]int, len(assign))
	wantSt, err := c.ref.Solve(want, caps, wantAssign)
	if err != nil {
		c.t.Fatal(err)
	}
	if st != wantSt {
		c.t.Fatalf("round %d: status %v, per-job %v", c.rounds, st, wantSt)
	}
	if st != transport.Optimal {
		return // the solver leaves an infeasible round's placement unspecified
	}
	for m := range assign {
		if assign[m] != wantAssign[m] {
			c.t.Fatalf("round %d: job %d placed in region %d, per-job %d", c.rounds, c.jobs[m].Job.ID, assign[m], wantAssign[m])
		}
	}
}

// classReplay is one whole run of the equivalence suite.
type classReplay struct {
	name    string
	cfg     func(*Config)
	env     func(*testing.T) *region.Environment
	jobs    func(*testing.T, []region.ID) []*trace.Job
	tol     float64
	minRate float64 // least jobs per class over the run
}

// replayEnv returns n servers per default region, optionally as a
// partition view of the named regions.
func replayEnv(servers, hours int, view ...region.ID) func(*testing.T) *region.Environment {
	return func(t *testing.T) *region.Environment {
		regions := region.Defaults()
		for i := range regions {
			regions[i].Servers = servers
		}
		env, err := region.NewEnvironment(regions, energy.Table, testStart, hours, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(view) > 0 {
			if env, err = env.Partition(view...); err != nil {
				t.Fatal(err)
			}
		}
		return env
	}
}

// borgJobs draws a Borg-like trace homed over every default region (not
// only the environment's), after which edit, if set, may change each job.
func borgJobs(hours int, perDay, durScale float64, edit func(*rand.Rand, *trace.Job)) func(*testing.T, []region.ID) []*trace.Job {
	return func(t *testing.T, _ []region.ID) []*trace.Job {
		var homes []region.ID
		for _, r := range region.Defaults() {
			homes = append(homes, r.ID)
		}
		jobs, err := trace.GenerateBorgLike(trace.Config{
			Start: testStart, Duration: time.Duration(hours) * time.Hour, JobsPerDay: perDay,
			Regions: homes, DurationScale: durScale, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for _, j := range jobs {
			if edit != nil {
				edit(rng, j)
			}
		}
		return jobs
	}
}

// TestClassScoringMatchesPerJob replays whole runs and rebuilds every
// round solve's cost table the per-job way: the class-scored table must be
// bit-identical and placed identically, on the paper, large and flash
// replays, on a trace whose jobs carry their own estimates, on jobs of an
// unknown benchmark (the default package), under the greedy controller,
// and through a partition view of the environment that some jobs' homes
// lie outside.
func TestClassScoringMatchesPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	zurich, madrid, oregon, mumbai := region.Zurich, region.Madrid, region.Oregon, region.Mumbai
	cases := []classReplay{
		{name: "paper", env: replayEnv(35, 24+72), jobs: borgJobs(24, 23000, 0.3, nil), tol: 0.5, minRate: 1.1},
		{name: "large", cfg: func(c *Config) { c.MaxBatch = 1000 }, env: replayEnv(400, 1+72),
			jobs: borgJobs(1, 1e6, 0.15, nil), tol: 0.5, minRate: 3},
		{name: "flash", env: replayEnv(8, 24*4), tol: 0.25, minRate: 1.1, jobs: func(t *testing.T, ids []region.ID) []*trace.Job {
			jobs, err := trace.GenerateFlashCrowd(trace.FlashConfig{
				Config: trace.Config{
					Start: testStart, Duration: 8 * time.Hour, JobsPerDay: 5000,
					Regions: ids, DurationScale: 0.3, Seed: 9,
				},
				FlashAt: 2 * time.Hour, FlashDuration: time.Hour, FlashMult: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			return jobs
		}},
		// Each estimate takes one of two values independently, so one
		// home and benchmark splits into classes that differ in exactly
		// one estimate.
		{name: "estimates", cfg: func(c *Config) { c.MaxBatch = 1000 }, env: replayEnv(400, 1+72), tol: 0.5, minRate: 1.3,
			jobs: borgJobs(1, 1e6, 0.15, func(rng *rand.Rand, j *trace.Job) {
				if rng.Intn(2) == 0 {
					j.EstEnergy = units.KWh(float64(j.EstEnergy) * 1.25)
				}
				if rng.Intn(2) == 0 {
					j.EstDuration = j.EstDuration * 4 / 5
				}
			})},
		{name: "unknown-benchmark", cfg: func(c *Config) { c.MaxBatch = 1000 }, env: replayEnv(400, 1+72), tol: 0.5, minRate: 3,
			jobs: borgJobs(1, 1e6, 0.15, func(rng *rand.Rand, j *trace.Job) {
				if rng.Intn(4) == 0 {
					j.Benchmark = "no-such-benchmark"
				}
			})},
		{name: "greedy", cfg: func(c *Config) { c.GreedyController, c.MaxBatch = true, 1000 }, env: replayEnv(400, 1+72),
			jobs: borgJobs(1, 1e6, 0.15, nil), tol: 0.5, minRate: 3},
		{name: "partition", cfg: func(c *Config) { c.MaxBatch = 1000 }, env: replayEnv(400, 1+72, oregon, zurich, mumbai), tol: 0.5, minRate: 1.3,
			jobs: borgJobs(1, 6e5, 0.15, func(rng *rand.Rand, j *trace.Job) {
				if j.Home == madrid && rng.Intn(2) == 0 {
					j.Benchmark = "no-such-benchmark"
				}
			})},
	}
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if rc.cfg != nil {
				rc.cfg(&cfg)
			}
			c := newPerJobCheck(t, cfg)
			env := rc.env(t)
			jobs := rc.jobs(t, env.IDs())
			res, err := cluster.Run(cluster.Config{Env: env, Tolerance: rc.tol}, c, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outcomes) != len(jobs) {
				t.Fatalf("%d jobs, %d outcomes", len(jobs), len(res.Outcomes))
			}
			rate := float64(c.jobsScored) / float64(c.classes)
			t.Logf("%d rounds (%d hard, %d soft solves): %d job rows in %d classes, %.2f jobs per class",
				c.rounds, c.hard, c.soft, c.jobsScored, c.classes, rate)
			if cfg.GreedyController == (c.hard+c.soft > 0) {
				t.Fatalf("%d solves under GreedyController=%v", c.hard+c.soft, cfg.GreedyController)
			}
			if rate < rc.minRate {
				t.Fatalf("%.2f jobs per class, want at least %.2f: the run does not exercise shared rows", rate, rc.minRate)
			}
		})
	}
}

// TestKeyIndexCollisions holds keyIndex to its contract when every key
// hashes alike, and when hashes differ in their high bits only: each key
// gets its own entry, and a second lookup finds it.
func TestKeyIndexCollisions(t *testing.T) {
	for _, hash := range []func(key int) uint64{
		func(int) uint64 { return 7 },
		func(key int) uint64 { return uint64(key) << 40 },
	} {
		var x keyIndex
		x.reset(40)
		for round := range 2 {
			for key := range 40 {
				e, added := x.find(hash(key), int32(key), func(e int32) bool { return int(e) == key })
				if e != int32(key) || added != (round == 0) {
					t.Fatalf("round %d: key %d found entry %d (added %v)", round, key, e, added)
				}
			}
		}
		x.reset(1)
		if _, added := x.find(hash(3), 0, func(int32) bool { return true }); !added {
			t.Fatal("a reset index found an entry of the round before")
		}
	}
}

// scheduleRoundCtx returns a standing batch shaped like a large-replay
// round: n jobs cycling through the 10 profiles and the 5 homes, every
// region with 400 free servers. The first 50 jobs are 50 classes, and
// later jobs repeat them. With distinct set, every job's energy estimate
// is its own, so every job is its own class.
func scheduleRoundCtx(b *testing.B, n int, distinct bool) *cluster.Context {
	env := testEnv(b)
	ids := env.IDs()
	profiles := workload.All()
	jobs := make([]*trace.Job, n)
	for i := range jobs {
		p := profiles[i%len(profiles)]
		est := p.MeanEnergy()
		if distinct {
			est = units.KWh(float64(est) * (1 + float64(i)*1e-6))
		}
		jobs[i] = &trace.Job{
			ID: i, Submit: testStart, Benchmark: p.Name, Home: ids[i/len(profiles)%len(ids)],
			Duration: p.MeanDuration, Energy: p.MeanEnergy(), EstDuration: p.MeanDuration, EstEnergy: est,
		}
	}
	free := make(map[region.ID]int)
	for _, id := range ids {
		free[id] = 400
	}
	return testCtx(b, env, jobs, 0.5, free)
}

// BenchmarkScheduleRound times one hard-mode Schedule of a large-replay
// round (see scheduleRoundCtx) with MaxBatch 1000: in classes every one
// of 1000 jobs carries its profile's mean estimates (50 classes), in
// distinct no two jobs share a class, the worst case a served client can
// send. The jobs=n rounds are shorter batches of the classes shape, down
// to the paper's scale: up to 50 jobs every job is its own class.
func BenchmarkScheduleRound(b *testing.B) {
	cases := []struct {
		name     string
		n        int
		distinct bool
	}{
		{"classes", 1000, false}, {"distinct", 1000, true},
		{"jobs=16", 16, false}, {"jobs=32", 32, false}, {"jobs=64", 64, false}, {"jobs=128", 128, false},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			ctx := scheduleRoundCtx(b, bc.n, bc.distinct)
			cfg := DefaultConfig()
			cfg.MaxBatch = 1000
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for range b.N {
				dec, err := s.Schedule(ctx)
				if err != nil || len(dec) != len(ctx.Jobs) {
					b.Fatalf("%d of %d jobs placed: %v", len(dec), len(ctx.Jobs), err)
				}
				sinkDecisions = dec
			}
			if _, soft := s.Stats(); soft != 0 {
				b.Fatalf("%d softened rounds, want hard-mode rounds only", soft)
			}
			want := min(bc.n, 50)
			if bc.distinct {
				want = bc.n
			}
			if got := len(s.classFirst); got != want {
				b.Fatalf("%d classes, want %d", got, want)
			}
		})
	}
}
