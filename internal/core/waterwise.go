// Package core implements the WaterWise scheduler — the paper's primary
// contribution: a carbon- and water-footprint co-optimizing job scheduler
// for geographically distributed data centers (Section 4).
//
// Each scheduling round, the Optimization Decision Controller solves the
// MILP of Eq. 8:
//
//	min Σ_m Σ_n x_mn · [ λ_CO2·CO2(m,n)/CO2max_m + λ_H2O·H2O(m,n)/H2Omax_m
//	                     + λ_ref·(λ_CO2·CO2ref_n + λ_H2O·H2Oref_n) ]
//
// subject to Eq. 9 (each job placed exactly once), Eq. 10 (regional
// capacity), and Eq. 11 (transfer latency within the delay tolerance:
// Σ_n x_mn·L_mn/t_mn ≤ TOL%). When the hard problem is infeasible — or when
// demand exceeds total capacity and the slack manager has pre-selected the
// most urgent jobs (Algorithm 1) — the controller softens Eq. 11 with
// penalty variables (Eq. 12–13). The round is a transportation problem,
// and the controller solves it as one (see solve and internal/transport).
//
// The history learner feeds each region's recent normalized carbon/water
// intensity back into the objective (the CO2ref/H2Oref terms) so the
// controller avoids regions that have recently been expensive even if the
// instantaneous reading momentarily dips.
package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/transport"
	"waterwise/internal/workload"
)

// Config parameterizes the WaterWise controller. The zero value is not
// usable; construct with New which applies the paper's defaults.
type Config struct {
	// LambdaCarbon (λ_CO2) weights the carbon objective; paper default 0.5.
	LambdaCarbon float64
	// LambdaWater (λ_H2O) weights the water objective; paper default 0.5.
	// LambdaCarbon + LambdaWater must equal 1.
	LambdaWater float64
	// LambdaRef (λ_ref) weights the history learner; paper default 0.1.
	LambdaRef float64
	// HistoryWindow is the history learner's window in scheduling rounds;
	// paper default 10.
	HistoryWindow int
	// PenaltySigma (σ) prices delay-tolerance violations in the softened
	// problem (Eq. 12).
	PenaltySigma float64
	// MaxBatch caps the number of jobs placed in a single round; overflow
	// jobs wait for the next round (most urgent first). It bounds a round's
	// decision overhead under Alibaba-level arrival bursts.
	MaxBatch int

	// PerfWeight (λ_perf) optionally adds performance as a third objective
	// (paper §7 "Performance Considerations"): each pair's normalized
	// service-time impact — transfer latency relative to the job's
	// execution time — joins the objective with this weight. 0 disables it
	// (the paper's evaluated configuration).
	PerfWeight float64
	// CostWeight (λ_cost) optionally adds financial cost as an objective
	// (paper §7 "Cost Considerations"): each pair's electricity spend,
	// normalized per job across regions. 0 disables it.
	CostWeight float64

	// DisableHistory turns off the history learner (ablation).
	DisableHistory bool
	// DisableSlackManager replaces urgency ordering with FIFO (ablation).
	DisableSlackManager bool
	// GreedyController replaces the MILP with per-job greedy argmin
	// (ablation for the "why MILP" design question).
	GreedyController bool
}

// DefaultConfig returns the paper's default parameters: equal carbon/water
// weights, λ_ref = 0.1, window 10.
func DefaultConfig() Config {
	return Config{
		LambdaCarbon:  0.5,
		LambdaWater:   0.5,
		LambdaRef:     0.1,
		HistoryWindow: 10,
		PenaltySigma:  10,
		MaxBatch:      64,
	}
}

// Scheduler is the WaterWise Optimization Decision Controller plus slack
// manager and history learner. It implements cluster.Scheduler.
type Scheduler struct {
	cfg Config
	// history learner ring buffers, per region: normalized carbon and
	// water intensities of recent rounds.
	histCarbon map[region.ID][]float64
	histWater  map[region.ID][]float64
	// Softened counts rounds where the soft controller was needed
	// (exported for tests and the overhead study via Stats).
	softened int
	rounds   int
	// solverStats aggregates the round solves' wall time for the Fig. 13
	// decision-overhead accounting.
	solverStats transport.Stats
	// tp solves each round's transportation problem; its scratch grows
	// with the largest batch solved.
	tp transport.Solver
	// checkRound, when set, sees every round solve: its cost table,
	// capacities, status and placement (tests compare it with an oracle).
	checkRound func(cost []float64, caps []int, st transport.Status, assign []int)
	// checkBatch, when set, sees every round's batch before it is scored
	// (tests rebuild the round's cost table from it).
	checkBatch func(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob)
	// urg is the slack manager's ranking of the queue, kept across
	// overloaded rounds (see urgencyIndex).
	urg urgencyIndex
	// Per-round scratch, reused across Schedule calls (a Scheduler is
	// single-threaded by the cluster.Scheduler contract, so pooling here is
	// safe): capacity counts, greedy capacity leftovers, the history
	// learner's per-region readings and each region's description. Keeps
	// the serving hot path off the allocator.
	capsBuf []int
	leftBuf []int
	readBuf []reading
	regBuf  []*region.Region
	// The round's scoring classes (see scoreClasses): classIdx finds a
	// class by its key, classFirst[k] is class k's first job and
	// jobClass[m] is job m's class. Class k's rows are N wide:
	// candBuf[k*N:(k+1)*N] holds its candidates and baseBuf[k*N:(k+1)*N]
	// its Eq. 8 objective before the Eq. 11 test (see roundTerms).
	classIdx   keyIndex
	classFirst []int32
	jobClass   []int32
	candBuf    []candidate
	baseBuf    []float64
	// refTerm[n] is region n's history-learner term (see roundTerms).
	refTerm []float64
	// The round's transportation problem: the M×N cost table and the
	// placement the solver writes.
	costBuf   []float64
	assignBuf []int
	// The round's transfer round trips, resolved once per distinct home:
	// rttRows[h*N+n] is the RTT from rttHomes[h] to region n, or -1 for
	// the home region itself (no transfer).
	rttHomes []region.ID
	rttRows  []time.Duration
}

// keyIndex finds a round's scoring classes by the hash of their key, by
// open addressing: slots[i] holds an entry's index + 1, 0 when empty,
// and hash[e] is entry e's hash. It is cleared every round, so it holds
// only that round's entries, at most half of its slots full.
type keyIndex struct {
	slots []int32
	hash  []uint64
}

// reset empties the index and sizes it for up to n entries.
func (x *keyIndex) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(x.slots) < size {
		x.slots, x.hash = make([]int32, size), make([]uint64, 0, size/2)
	}
	x.slots = x.slots[:size]
	clear(x.slots)
	x.hash = x.hash[:0]
}

// find returns the entry of hash h for which same holds. When there is
// none it adds entry next, of hash h, and returns it with added set.
func (x *keyIndex) find(h uint64, next int32, same func(e int32) bool) (e int32, added bool) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if e := x.slots[i] - 1; x.hash[e] == h && same(e) {
			return e, false
		}
	}
	x.slots[i] = next + 1
	x.hash = append(x.hash, h)
	return next, true
}

// mixHash is the splitmix64 finalizer: it spreads x's bits over the word,
// so that keys differing in a few low bits land in distant slots.
func mixHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hashSeed seeds the string hashes of class keys. Only the cost of a
// lookup depends on it: a class's index is its first job's order.
var hashSeed = maphash.MakeSeed()

// rowMax holds one class's Eq. 8 normalizers over its candidate row: the
// largest finite carbon and water (1 when none is positive) and, for the
// §7 extensions, the largest finite ratio and the largest cost.
type rowMax struct {
	carbon, water, ratio, usd float64
}

// New returns a WaterWise scheduler, validating and defaulting cfg.
func New(cfg Config) (*Scheduler, error) {
	def := DefaultConfig()
	if cfg.LambdaCarbon == 0 && cfg.LambdaWater == 0 {
		cfg.LambdaCarbon, cfg.LambdaWater = def.LambdaCarbon, def.LambdaWater
	}
	if math.Abs(cfg.LambdaCarbon+cfg.LambdaWater-1) > 1e-9 {
		return nil, fmt.Errorf("core: λ_CO2 + λ_H2O = %g, must equal 1", cfg.LambdaCarbon+cfg.LambdaWater)
	}
	if cfg.LambdaCarbon < 0 || cfg.LambdaWater < 0 {
		return nil, fmt.Errorf("core: negative objective weight")
	}
	if cfg.LambdaRef == 0 {
		cfg.LambdaRef = def.LambdaRef
	}
	if cfg.HistoryWindow <= 0 {
		cfg.HistoryWindow = def.HistoryWindow
	}
	if cfg.PenaltySigma <= 0 {
		cfg.PenaltySigma = def.PenaltySigma
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	return &Scheduler{
		cfg:        cfg,
		histCarbon: make(map[region.ID][]float64),
		histWater:  make(map[region.ID][]float64),
	}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return "waterwise" }

// Stats reports internal counters: total rounds and how many needed the
// softened controller.
func (s *Scheduler) Stats() (rounds, softened int) { return s.rounds, s.softened }

// SolverStats reports the solver accounting accumulated across all
// scheduling rounds (the decision-overhead breakdown of Fig. 13): the
// rounds' solve wall time. The transportation solver runs no branch and
// bound and no simplex, so nodes, simplex iterations and warm starts read
// 0. milp.Stats is an alias of transport.Stats, so callers may hold the
// result as either.
func (s *Scheduler) SolverStats() transport.Stats { return s.solverStats }

// candidate carries the per-(job, region) scoring inputs for one round.
type candidate struct {
	carbon  float64 // absolute carbon estimate incl. transfer (g)
	water   float64 // absolute water estimate incl. transfer (L)
	ratio   float64 // L_mn / t_mn for Eq. 11
	cost    float64 // electricity spend estimate (USD), for the §7 extension
	latency time.Duration
}

// Schedule implements cluster.Scheduler: Algorithm 1 of the paper.
func (s *Scheduler) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	s.rounds++
	ids := ctx.Env.IDs()
	if len(ids) == 0 || len(ctx.Jobs) == 0 {
		return nil, nil
	}

	if cap(s.capsBuf) < len(ids) {
		s.capsBuf = make([]int, len(ids))
	}
	caps := s.capsBuf[:len(ids)]
	totalCap := 0
	for n, id := range ids {
		caps[n] = ctx.Free[id]
		totalCap += caps[n]
	}

	s.updateHistory(ctx, ids)

	if totalCap == 0 {
		return nil, nil // nothing can start; jobs keep waiting
	}

	// Slack manager (Algorithm 1, lines 5-7): when demand exceeds total
	// capacity, keep only the most urgent Σcap jobs this round; the MILP
	// batch is also capped to bound decision overhead.
	jobs := ctx.Jobs
	overloaded := len(jobs) > totalCap
	limit := min(totalCap, s.cfg.MaxBatch)
	switch {
	case len(jobs) <= limit:
		s.urg.drop() // the whole queue is offered
	case s.cfg.DisableSlackManager:
		jobs = jobs[:limit] // FIFO truncation (ablation)
	default:
		jobs = s.urg.pick(ctx, ids, limit)
		dec, err := s.place(ctx, ids, caps, jobs, overloaded)
		s.urg.settle(ctx, dec, err)
		return dec, err
	}
	return s.place(ctx, ids, caps, jobs, overloaded)
}

// place decides the round's batch: Algorithm 1, lines 8-11.
func (s *Scheduler) place(ctx *cluster.Context, ids []region.ID, caps []int, jobs []*cluster.PendingJob, overloaded bool) ([]cluster.Decision, error) {
	if s.checkBatch != nil {
		s.checkBatch(ctx, ids, jobs)
	}
	s.scoreClasses(ctx, ids, jobs)
	s.roundTerms(ids)

	if s.cfg.GreedyController {
		return s.greedyAssign(ctx, ids, caps, jobs), nil
	}

	// Hard controller first (Algorithm 1, lines 8-9); soften on demand
	// overload or infeasibility (lines 5-7 and 10-11).
	if !overloaded {
		dec, feasible, err := s.solve(ctx, ids, caps, jobs, false)
		if err != nil {
			return nil, err
		}
		if feasible {
			return dec, nil
		}
	}
	s.softened++
	dec, feasible, err := s.solve(ctx, ids, caps, jobs, true)
	if err != nil {
		return nil, err
	}
	if !feasible {
		// Last resort: greedy keeps the cluster moving when forbidden
		// pairs leave no placement of the whole batch.
		return s.greedyAssign(ctx, ids, caps, jobs), nil
	}
	return dec, nil
}

// scoreClasses groups the round's batch into scoring classes (see
// classify), and scores each class's (job, region) pairs once at the
// current instant, using the controller's estimates (EstDuration/EstEnergy)
// — never the ground-truth actuals. All jobs of a class have the same
// row, so a class is scored from its first job.
func (s *Scheduler) scoreClasses(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) {
	s.classify(jobs)
	N := len(ids)
	if cap(s.regBuf) < N {
		s.regBuf = make([]*region.Region, N)
	}
	regs := s.regBuf[:N]
	for n, id := range ids {
		regs[n] = ctx.Env.Region(id)
	}
	if need := len(s.classFirst) * N; cap(s.candBuf) < need {
		s.candBuf = make([]candidate, need)
		s.baseBuf = make([]float64, need)
	}
	s.rttHomes, s.rttRows = s.rttHomes[:0], s.rttRows[:0]
	for k, m := range s.classFirst {
		job := jobs[m].Job
		pkg := workload.PackageMB(job.Benchmark)
		row := s.candBuf[k*N : (k+1)*N]
		rtt := s.rttRow(ctx, ids, job.Home)
		for n, id := range ids {
			lat := time.Duration(0)
			if rtt[n] >= 0 {
				lat = ctx.Net.LatencyAt(rtt[n], pkg)
			}
			snap, ok := ctx.Env.Snapshot(id, ctx.Now.Add(lat))
			if !ok {
				row[n] = candidate{carbon: math.Inf(1), water: math.Inf(1), ratio: math.Inf(1)}
				continue
			}
			fp := ctx.FP.ForJob(snap, job.EstEnergy, job.EstDuration)
			carbon := float64(fp.Carbon())
			water := float64(fp.Water())
			if rtt[n] >= 0 {
				commFP := ctx.FP.ForJob(snap, ctx.Net.Energy(job.Home, id, pkg), 0)
				carbon += float64(commFP.Carbon())
				water += float64(commFP.Water())
			}
			ratio := 0.0
			if job.EstDuration > 0 {
				ratio = float64(lat) / float64(job.EstDuration)
			}
			usd := 0.0
			if r := regs[n]; r != nil {
				usd = r.EnergyPriceUSD * float64(job.EstEnergy) * snap.PUE
			}
			row[n] = candidate{carbon: carbon, water: water, ratio: ratio, cost: usd, latency: lat}
		}
	}
}

// classify groups jobs into scoring classes. A class's key is (Home,
// Benchmark, EstEnergy, EstDuration): the home sets the transfer paths,
// the benchmark the package size, and the two estimates price the
// footprint and the Eq. 11 ratio. The trace generators set both estimates
// to the profile mean, but a served client may send its own, so they are
// part of the key. EstEnergy is compared by its bits, so that +0 and -0,
// which score to rows of different bits, stay apart.
func (s *Scheduler) classify(jobs []*cluster.PendingJob) {
	if cap(s.jobClass) < len(jobs) {
		s.jobClass, s.classFirst = make([]int32, len(jobs)), make([]int32, 0, len(jobs))
	}
	s.jobClass = s.jobClass[:len(jobs)]
	s.classFirst = s.classFirst[:0]
	s.classIdx.reset(len(jobs))
	for m, pj := range jobs {
		job := pj.Job
		energy := math.Float64bits(float64(job.EstEnergy))
		h := maphash.String(hashSeed, string(job.Home)) ^ bits.RotateLeft64(maphash.String(hashSeed, job.Benchmark), 32)
		h = mixHash(h ^ mixHash(energy^uint64(job.EstDuration)))
		k, added := s.classIdx.find(h, int32(len(s.classFirst)), func(k int32) bool {
			first := jobs[s.classFirst[k]].Job
			return math.Float64bits(float64(first.EstEnergy)) == energy && first.EstDuration == job.EstDuration &&
				first.Home == job.Home && first.Benchmark == job.Benchmark
		})
		if added {
			s.classFirst = append(s.classFirst, int32(m))
		}
		s.jobClass[m] = k
	}
}

// rttRow returns the round trips from home to each region of ids, resolved
// on the round's first class from home: -1 marks home itself, and
// ctx.Net.LatencyAt of any other entry equals ctx.Net.Latency of that pair.
func (s *Scheduler) rttRow(ctx *cluster.Context, ids []region.ID, home region.ID) []time.Duration {
	N := len(ids)
	for h, id := range s.rttHomes {
		if id == home {
			return s.rttRows[h*N : (h+1)*N]
		}
	}
	s.rttHomes = append(s.rttHomes, home)
	for _, id := range ids {
		rtt := time.Duration(-1)
		if id != home {
			rtt = ctx.Net.RTT(home, id)
		}
		s.rttRows = append(s.rttRows, rtt)
	}
	return s.rttRows[len(s.rttRows)-N:]
}

// roundTerms computes what the Eq. 8 objective shares across a round:
// each region's history-learner term λ_ref·(λ_CO2·CO2ref_n + λ_H2O·H2Oref_n)
// and, from each class's candidate row and its maxima, the class's base
// objective row, +Inf on unusable pairs. It runs once per round, after
// scoreClasses, so that only the Eq. 11 test is left per job.
func (s *Scheduler) roundTerms(ids []region.ID) {
	N := len(ids)
	if cap(s.refTerm) < N {
		s.refTerm = make([]float64, N)
	}
	s.refTerm = s.refTerm[:N]
	for n, id := range ids {
		s.refTerm[n] = s.cfg.LambdaRef * (s.cfg.LambdaCarbon*s.refCarbon(id) + s.cfg.LambdaWater*s.refWater(id))
	}
	for k := range s.classFirst {
		row, base := s.candBuf[k*N:(k+1)*N], s.baseBuf[k*N:(k+1)*N]
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
		for n, c := range row {
			b := s.objective(mx, c, n)
			if math.IsInf(b, 1) || math.IsInf(c.ratio, 1) {
				b = math.Inf(1) // unusable pair
			}
			base[n] = b
		}
	}
}

// objective computes the Eq. 8 cost coefficient of candidate c, in region
// index n, under its row's maxima mx.
func (s *Scheduler) objective(mx rowMax, c candidate, n int) float64 {
	cost := s.cfg.LambdaCarbon*c.carbon/mx.carbon + s.cfg.LambdaWater*c.water/mx.water
	if !s.cfg.DisableHistory {
		cost += s.refTerm[n]
	}
	// §7 extensions: performance and financial-cost objectives, normalized
	// like the carbon/water terms so no single objective dominates by unit.
	if s.cfg.PerfWeight > 0 && mx.ratio > 0 {
		cost += s.cfg.PerfWeight * c.ratio / mx.ratio
	}
	if s.cfg.CostWeight > 0 && mx.usd > 0 {
		cost += s.cfg.CostWeight * c.cost / mx.usd
	}
	return cost
}

// classRows returns job m's class rows: its candidates and its base
// objective.
func (s *Scheduler) classRows(m, N int) ([]candidate, []float64) {
	k := int(s.jobClass[m])
	return s.candBuf[k*N : (k+1)*N], s.baseBuf[k*N : (k+1)*N]
}

// solve fills the round's M×N cost table and solves it as a
// transportation problem (Eq. 8-13).
//
// The delay-tolerance constraint is encoded in its exact pair-wise
// equivalent: because Eq. 9 forces exactly one x_mn to 1 per job, the row
// Σ_n x_mn·L_mn/t_mn <= TOL holds iff the chosen pair's ratio is within the
// job's remaining tolerance. So in hard mode, pairs with ratio > remaining
// tolerance are forbidden (cost +Inf); in soft mode, the optimal penalty
// variable of Eq. 12-13 evaluates to P_m = max(0, ratio - TOL) for the
// chosen pair, so σ·max(0, ratio - TOL) folds into the pair's cost. Both
// encodings are mathematically identical to the paper's formulation and
// leave Eq. 9 and Eq. 10 alone as constraints: a bipartite transportation
// problem, whose matrix is totally unimodular, so the network optimum is
// the MILP's. Each job's row is its class's base row with that test
// applied against the job's own remaining tolerance. It returns the
// decisions, whether every job was placed, and any solver error.
func (s *Scheduler) solve(ctx *cluster.Context, ids []region.ID, caps []int, jobs []*cluster.PendingJob, soft bool) ([]cluster.Decision, bool, error) {
	M, N := len(jobs), len(ids)
	if cap(s.costBuf) < M*N {
		s.costBuf = make([]float64, M*N)
	}
	if cap(s.assignBuf) < M {
		s.assignBuf = make([]int, M)
	}
	cost, assign := s.costBuf[:M*N], s.assignBuf[:M]
	for m := 0; m < M; m++ {
		row, base := s.classRows(m, N)
		rhs := remainingTolerance(ctx, jobs[m].Job)
		out := cost[m*N : (m+1)*N]
		for n, c := range base {
			if ratio := row[n].ratio; ratio > rhs {
				if soft {
					// Eq. 12-13: violation priced at σ per unit of excess.
					c += s.cfg.PenaltySigma * (ratio - rhs)
				} else {
					c = math.Inf(1) // Eq. 11 violated: forbidden in hard mode
				}
			}
			out[n] = c
		}
	}
	start := time.Now()
	st, err := s.tp.Solve(cost, caps, assign)
	s.solverStats.Wall += time.Since(start)
	if err != nil {
		return nil, false, fmt.Errorf("core: round of %d jobs: %w", M, err)
	}
	if s.checkRound != nil {
		s.checkRound(cost, caps, st, assign)
	}
	if st != transport.Optimal {
		return nil, false, nil
	}
	dec := make([]cluster.Decision, M)
	for m, n := range assign {
		dec[m] = cluster.Decision{Job: jobs[m].Job, Region: ids[n]}
	}
	return dec, true, nil
}

// remainingTolerance is the right-hand side of the job's Eq. 11 row this
// round: TOL less the share of its estimated run time it has already spent
// waiting since submission, floored at 0.
func remainingTolerance(ctx *cluster.Context, job *trace.Job) float64 {
	rhs := ctx.Tolerance
	if est := float64(job.EstDuration); est > 0 {
		rhs -= float64(ctx.Now.Sub(job.Submit)) / est
	}
	if rhs < 0 {
		rhs = 0
	}
	return rhs
}

// greedyAssign is the ablation controller (and last-resort fallback): each
// job takes its cheapest feasible region, respecting capacity counts, under
// the same remaining tolerance as solve.
func (s *Scheduler) greedyAssign(ctx *cluster.Context, ids []region.ID, caps []int, jobs []*cluster.PendingJob) []cluster.Decision {
	if cap(s.leftBuf) < len(caps) {
		s.leftBuf = make([]int, len(caps))
	}
	left := s.leftBuf[:len(caps)]
	copy(left, caps)
	N := len(ids)
	out := make([]cluster.Decision, 0, len(jobs))
	for m, pj := range jobs {
		row, base := s.classRows(m, N)
		rhs := remainingTolerance(ctx, pj.Job)
		best, bestCost := -1, math.Inf(1)
		for n := range ids {
			if left[n] <= 0 {
				continue
			}
			if row[n].ratio > rhs {
				continue
			}
			if c := base[n]; c < bestCost {
				bestCost = c
				best = n
			}
		}
		if best == -1 {
			// Tolerance excludes everything with capacity: softened greedy
			// falls back to the cheapest region with space.
			for n := range ids {
				if left[n] <= 0 {
					continue
				}
				c := base[n] + s.cfg.PenaltySigma*math.Max(0, row[n].ratio-rhs)
				if c < bestCost {
					bestCost = c
					best = n
				}
			}
		}
		if best == -1 {
			continue // no capacity anywhere; job waits
		}
		left[best]--
		out = append(out, cluster.Decision{Job: pj.Job, Region: ids[best]})
	}
	return out
}

// reading is one region's carbon and water intensity in a round, as the
// history learner reads it; ok is false when the region had no snapshot.
type reading struct {
	carbon, water float64
	ok            bool
}

// updateHistory records this round's normalized per-region carbon and water
// intensities into the history learner window. A region without a snapshot
// this round (a live feed that has not primed it) gets no entry: a missing
// reading is not a clean one.
func (s *Scheduler) updateHistory(ctx *cluster.Context, ids []region.ID) {
	if s.cfg.DisableHistory {
		return
	}
	if cap(s.readBuf) < len(ids) {
		s.readBuf = make([]reading, len(ids))
	}
	reads := s.readBuf[:len(ids)]
	maxC, maxW := 0.0, 0.0
	for i, id := range ids {
		snap, ok := ctx.Env.Snapshot(id, ctx.Now)
		if !ok {
			reads[i] = reading{}
			continue
		}
		r := reading{carbon: float64(snap.CI), water: float64(snap.WaterIntensity()), ok: true}
		reads[i] = r
		if r.carbon > maxC {
			maxC = r.carbon
		}
		if r.water > maxW {
			maxW = r.water
		}
	}
	for i, id := range ids {
		r := reads[i]
		if !r.ok {
			continue
		}
		c, w := 0.0, 0.0
		if maxC > 0 {
			c = r.carbon / maxC
		}
		if maxW > 0 {
			w = r.water / maxW
		}
		s.histCarbon[id] = pushWindow(s.histCarbon[id], c, s.cfg.HistoryWindow)
		s.histWater[id] = pushWindow(s.histWater[id], w, s.cfg.HistoryWindow)
	}
}

// refCarbon is CO2ref_n: the windowed mean normalized carbon intensity.
func (s *Scheduler) refCarbon(id region.ID) float64 { return meanOf(s.histCarbon[id]) }

// refWater is H2Oref_n: the windowed mean normalized water intensity.
func (s *Scheduler) refWater(id region.ID) float64 { return meanOf(s.histWater[id]) }

func pushWindow(w []float64, v float64, size int) []float64 {
	w = append(w, v)
	if len(w) > size {
		w = w[len(w)-size:]
	}
	return w
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Interface compliance check.
var _ cluster.Scheduler = (*Scheduler)(nil)
