// Package core implements the WaterWise scheduler — the paper's primary
// contribution: a carbon- and water-footprint co-optimizing job scheduler
// for geographically distributed data centers (Section 4).
//
// Each scheduling round, the Optimization Decision Controller builds the
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
// penalty variables (Eq. 12–13).
//
// The history learner feeds each region's recent normalized carbon/water
// intensity back into the objective (the CO2ref/H2Oref terms) so the
// controller avoids regions that have recently been expensive even if the
// instantaneous reading momentarily dips.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/lp"
	"waterwise/internal/milp"
	"waterwise/internal/region"
	"waterwise/internal/trace"
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
	// MaxBatch caps the number of jobs put into a single MILP; overflow
	// jobs wait for the next round (most urgent first). Keeps the solver's
	// decision overhead low under Alibaba-level arrival bursts.
	MaxBatch int
	// Solver bounds the branch-and-bound search.
	Solver milp.Options

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
		Solver:        milp.Options{MaxNodes: 500, RelGap: 1e-4, TimeLimit: 250 * time.Millisecond},
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
	// models caches the round MILP skeleton per batch shape: the
	// constraint structure (Eq. 9 assignment rows + Eq. 10 capacity rows)
	// is identical between rounds with the same job count, so only the
	// objective coefficients, variable bounds, and capacity RHS values are
	// rewritten each round instead of rebuilding the whole problem.
	models map[modelKey]*roundModel
	// solverStats aggregates branch-and-bound instrumentation across
	// rounds for the Fig. 13 decision-overhead accounting.
	solverStats milp.Stats
	// Per-round scratch, reused across Schedule calls (a Scheduler is
	// single-threaded by the cluster.Scheduler contract, so pooling here is
	// safe): candidate rows and backing array, capacity counts, the slack
	// manager's kept-set heap, greedy capacity leftovers, and the history
	// learner's per-region readings. Keeps the serving hot path off the
	// allocator.
	candRows [][]candidate
	candBuf  []candidate
	capsBuf  []int
	urgBuf   []urgentJob
	leftBuf  []int
	readBuf  []reading
	// The objective's round invariants (see roundTerms): each job row's
	// normalizers and each region's history-learner term.
	rowMax  []rowMax
	refTerm []float64
}

// rowMax holds one job's Eq. 8 normalizers over its candidate row: the
// largest finite carbon and water (1 when none is positive) and, for the
// §7 extensions, the largest finite ratio and the largest cost.
type rowMax struct {
	carbon, water, ratio, usd float64
}

type modelKey struct{ m, n int }

// roundModel is a cached MILP skeleton for an M-jobs x N-regions round.
type roundModel struct {
	prob    *milp.Problem
	capRows []int     // constraint indices of the Eq. 10 capacity rows
	obj     []float64 // reusable objective buffer (len M*N)
}

// model returns the cached MILP skeleton for an MxN round, building it on
// first use.
func (s *Scheduler) model(M, N int) (*roundModel, error) {
	key := modelKey{M, N}
	if rm, ok := s.models[key]; ok {
		return rm, nil
	}
	prob := milp.New(M * N)
	for v := 0; v < M*N; v++ {
		// Eq. 9 (Σ_n x_mn = 1, x >= 0) implies x_mn <= 1, so the binaries
		// need no explicit upper-bound rows.
		if err := prob.SetImpliedBinary(v); err != nil {
			return nil, err
		}
	}
	// Eq. 9: each job assigned to exactly one region.
	for m := 0; m < M; m++ {
		terms := make([]lp.Term, N)
		for n := 0; n < N; n++ {
			terms[n] = lp.Term{Var: m*N + n, Coef: 1}
		}
		if _, err := prob.AddConstraint(terms, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// Eq. 10: regional capacity (RHS rewritten every round).
	capRows := make([]int, N)
	for n := 0; n < N; n++ {
		terms := make([]lp.Term, M)
		for m := 0; m < M; m++ {
			terms[m] = lp.Term{Var: m*N + n, Coef: 1}
		}
		row, err := prob.AddConstraint(terms, lp.LE, 0)
		if err != nil {
			return nil, err
		}
		capRows[n] = row
	}
	// Compile the skeleton's sparse matrix once: every round with this batch
	// shape shares the same immutable CSC arrays instead of re-deriving them
	// per solve.
	prob.Compile()
	rm := &roundModel{prob: prob, capRows: capRows, obj: make([]float64, M*N)}
	s.models[key] = rm
	return rm, nil
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
	if cfg.Solver.MaxNodes == 0 && cfg.Solver.TimeLimit == 0 {
		cfg.Solver = def.Solver
	}
	return &Scheduler{
		cfg:        cfg,
		histCarbon: make(map[region.ID][]float64),
		histWater:  make(map[region.ID][]float64),
		models:     make(map[modelKey]*roundModel),
	}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return "waterwise" }

// Stats reports internal counters: total rounds and how many needed the
// softened controller.
func (s *Scheduler) Stats() (rounds, softened int) { return s.rounds, s.softened }

// SolverStats reports the branch-and-bound instrumentation accumulated
// across all scheduling rounds: nodes, simplex iterations, warm-start hit
// rate, and solver wall time (the decision-overhead breakdown of Fig. 13).
func (s *Scheduler) SolverStats() milp.Stats { return s.solverStats }

// urgentJob pairs a pending job with its Eq. 14 urgency score and its
// position in the round's queue, the tie-break of the selection order.
type urgentJob struct {
	pj  *cluster.PendingJob
	u   float64
	pos int
}

// cmpUrgent is the slack manager's total order: ascending urgency score,
// ties by queue position — what a stable sort by score alone yields.
func cmpUrgent(a, b urgentJob) int {
	switch {
	case a.u < b.u:
		return -1
	case a.u > b.u:
		return 1
	}
	return a.pos - b.pos
}

// siftDown restores the max-heap property (under cmpUrgent) below h[i].
func siftDown(h []urgentJob, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmpUrgent(h[c+1], h[c]) > 0 {
			c++
		}
		if cmpUrgent(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

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
	limit := totalCap
	if s.cfg.MaxBatch < limit {
		limit = s.cfg.MaxBatch
	}
	if len(jobs) > limit {
		if s.cfg.DisableSlackManager {
			jobs = jobs[:limit] // FIFO truncation (ablation)
		} else {
			jobs = s.mostUrgent(ctx, jobs, limit)
		}
	}

	cands := s.buildCandidates(ctx, ids, jobs)
	s.roundTerms(ids, cands)

	if s.cfg.GreedyController {
		return s.greedyAssign(ctx, ids, caps, jobs, cands), nil
	}

	// Hard controller first (Algorithm 1, lines 8-9); soften on demand
	// overload or infeasibility (lines 5-7 and 10-11).
	if !overloaded {
		dec, feasible, err := s.solve(ctx, ids, caps, jobs, cands, false)
		if err != nil {
			return nil, err
		}
		if feasible {
			return dec, nil
		}
	}
	s.softened++
	dec, feasible, err := s.solve(ctx, ids, caps, jobs, cands, true)
	if err != nil {
		return nil, err
	}
	if !feasible {
		// Last resort: greedy keeps the cluster moving even if the solver
		// hit its limits.
		return s.greedyAssign(ctx, ids, caps, jobs, cands), nil
	}
	return dec, nil
}

// buildCandidates scores every (job, region) pair at the current instant,
// using the controller's estimates (EstDuration/EstEnergy) — never the
// ground-truth actuals.
func (s *Scheduler) buildCandidates(ctx *cluster.Context, ids []region.ID, jobs []*cluster.PendingJob) [][]candidate {
	// Pooled: the row headers and the backing entry array persist across
	// rounds; the returned slices are only valid until the next Schedule.
	if cap(s.candRows) < len(jobs) {
		s.candRows = make([][]candidate, len(jobs))
	}
	if need := len(jobs) * len(ids); cap(s.candBuf) < need {
		s.candBuf = make([]candidate, need)
	}
	cands := s.candRows[:len(jobs)]
	for m, pj := range jobs {
		job := pj.Job
		pkg := workload.PackageMB(job.Benchmark)
		row := s.candBuf[m*len(ids) : (m+1)*len(ids)]
		for n, id := range ids {
			lat := ctx.Net.Latency(job.Home, id, pkg)
			start := ctx.Now.Add(lat)
			snap, ok := ctx.Env.Snapshot(id, start)
			if !ok {
				row[n] = candidate{carbon: math.Inf(1), water: math.Inf(1), ratio: math.Inf(1)}
				continue
			}
			fp := ctx.FP.ForJob(snap, job.EstEnergy, job.EstDuration)
			carbon := float64(fp.Carbon())
			water := float64(fp.Water())
			if id != job.Home {
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
		cands[m] = row
	}
	return cands
}

// roundTerms computes what the Eq. 8 objective shares across a round:
// each candidate row's maxima and each region's history-learner term
// λ_ref·(λ_CO2·CO2ref_n + λ_H2O·H2Oref_n). It runs once per round, after
// buildCandidates, so objective is O(1) per pair.
func (s *Scheduler) roundTerms(ids []region.ID, cands [][]candidate) {
	if cap(s.rowMax) < len(cands) {
		s.rowMax = make([]rowMax, len(cands))
	}
	s.rowMax = s.rowMax[:len(cands)]
	for m, row := range cands {
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
		s.rowMax[m] = mx
	}
	if cap(s.refTerm) < len(ids) {
		s.refTerm = make([]float64, len(ids))
	}
	s.refTerm = s.refTerm[:len(ids)]
	for n, id := range ids {
		s.refTerm[n] = s.cfg.LambdaRef * (s.cfg.LambdaCarbon*s.refCarbon(id) + s.cfg.LambdaWater*s.refWater(id))
	}
}

// objective computes the Eq. 8 cost coefficient of placing job m in region
// index n, from the round terms roundTerms stored.
func (s *Scheduler) objective(cands [][]candidate, m, n int) float64 {
	mx, c := s.rowMax[m], cands[m][n]
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

// solve builds and solves the round's MILP (Eq. 8-13).
//
// The delay-tolerance constraint is encoded in its exact pair-wise
// equivalent: because Eq. 9 forces exactly one x_mn to 1 per job, the row
// Σ_n x_mn·L_mn/t_mn <= TOL holds iff the chosen pair's ratio is within the
// job's remaining tolerance. So in hard mode, pairs with ratio > remaining
// tolerance are forbidden (x_mn fixed to 0); in soft mode, the optimal
// penalty variable of Eq. 12-13 evaluates to P_m = max(0, ratio - TOL) for
// the chosen pair, so σ·max(0, ratio - TOL) folds into the pair's objective
// coefficient. Both encodings are mathematically identical to the paper's
// formulation and keep the relaxation a pure assignment polytope, which is
// integral — branch and bound terminates at the root LP (milp's
// TestRoundModelsCloseAtRoot checks this), keeping the decision overhead
// of Fig. 13 low. It returns the decisions, whether a usable solution was
// found, and any solver error.
func (s *Scheduler) solve(ctx *cluster.Context, ids []region.ID, caps []int, jobs []*cluster.PendingJob, cands [][]candidate, soft bool) ([]cluster.Decision, bool, error) {
	M, N := len(jobs), len(ids)
	rm, err := s.model(M, N)
	if err != nil {
		return nil, false, err
	}
	prob, obj := rm.prob, rm.obj
	// Clear the previous round's pair-forbidding fixes before installing
	// this round's.
	if err := prob.ResetVarBounds(0, math.Inf(1)); err != nil {
		return nil, false, err
	}
	for m := 0; m < M; m++ {
		rhs := remainingTolerance(ctx, jobs[m].Job)
		for n := 0; n < N; n++ {
			v := m*N + n
			cost := s.objective(cands, m, n)
			ratio := cands[m][n].ratio
			switch {
			case math.IsInf(cost, 1) || math.IsInf(ratio, 1):
				// Unusable pair: forbid by fixing the binary to zero.
				cost = 0
				if err := prob.SetBounds(v, 0, 0); err != nil {
					return nil, false, err
				}
			case ratio > rhs && !soft:
				// Eq. 11 violated for this pair: forbidden in hard mode.
				cost = 0
				if err := prob.SetBounds(v, 0, 0); err != nil {
					return nil, false, err
				}
			case ratio > rhs && soft:
				// Eq. 12-13: violation priced at σ per unit of excess.
				cost += s.cfg.PenaltySigma * (ratio - rhs)
			}
			obj[v] = cost
		}
	}
	if err := prob.SetObjective(obj, lp.Minimize); err != nil {
		return nil, false, err
	}
	// Eq. 10 RHS: this round's regional capacities.
	for n := 0; n < N; n++ {
		if err := prob.SetRHS(rm.capRows[n], float64(caps[n])); err != nil {
			return nil, false, err
		}
	}

	sol, err := prob.Solve(s.cfg.Solver)
	if err != nil {
		return nil, false, err
	}
	s.solverStats.Add(sol.Stats)
	if sol.Status != milp.Optimal && sol.Status != milp.Feasible {
		return nil, false, nil
	}
	dec := make([]cluster.Decision, 0, M)
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			if sol.X[m*N+n] > 0.5 {
				dec = append(dec, cluster.Decision{Job: jobs[m].Job, Region: ids[n]})
				break
			}
		}
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
func (s *Scheduler) greedyAssign(ctx *cluster.Context, ids []region.ID, caps []int, jobs []*cluster.PendingJob, cands [][]candidate) []cluster.Decision {
	if cap(s.leftBuf) < len(caps) {
		s.leftBuf = make([]int, len(caps))
	}
	left := s.leftBuf[:len(caps)]
	copy(left, caps)
	out := make([]cluster.Decision, 0, len(jobs))
	for m, pj := range jobs {
		rhs := remainingTolerance(ctx, pj.Job)
		best, bestCost := -1, math.Inf(1)
		for n := range ids {
			if left[n] <= 0 {
				continue
			}
			if cands[m][n].ratio > rhs {
				continue
			}
			if c := s.objective(cands, m, n); c < bestCost {
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
				c := s.objective(cands, m, n) + s.cfg.PenaltySigma*math.Max(0, cands[m][n].ratio-rhs)
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

// mostUrgent returns the limit jobs with the least remaining slack, per the
// urgency score of Eq. 14:
//
//	Urgency_m = TOL%·t_m − L̄_m − (T_now − T_start_m)
//
// i.e. allowed extra service time, minus typical migration cost, minus time
// already spent waiting. Ascending order = most urgent first, ties in queue
// order. One pass over the backlog keeps the limit smallest in a max-heap
// (the root is the least urgent kept job, so a job enters only by beating
// it), then only the kept jobs are sorted: O(backlog + limit·log limit).
//
// The first two terms do not change while the job waits, so the first call
// that ranks a job keeps TOL%·t_m − L̄_m in its PendingJob.Slack (see
// cluster.SlackMemo for when that stays valid), and every call scores it as
// that base minus the wait: the same float operations, in the same order,
// as evaluating Eq. 14 afresh. The region list is fetched only for a job
// without a memo.
func (s *Scheduler) mostUrgent(ctx *cluster.Context, jobs []*cluster.PendingJob, limit int) []*cluster.PendingJob {
	k := min(limit, len(jobs))
	if k <= 0 {
		return nil
	}
	if cap(s.urgBuf) < k {
		s.urgBuf = make([]urgentJob, 0, k)
	}
	kept := s.urgBuf[:0]
	var ids []region.ID
	now := ctx.Now.UnixNano()
	for pos, pj := range jobs {
		if !pj.Slack.Set {
			if ids == nil {
				ids = ctx.Env.IDs()
			}
			job := pj.Job
			avgLat := ctx.Net.AvgLatency(job.Home, ids, workload.PackageMB(job.Benchmark))
			pj.Slack = cluster.SlackMemo{Base: ctx.Tolerance*float64(job.EstDuration) - float64(avgLat), Set: true}
		}
		u := pj.Slack.Base - float64(now-pj.FirstSeen.UnixNano())
		switch {
		case len(kept) < k:
			kept = append(kept, urgentJob{pj: pj, u: u, pos: pos})
			if len(kept) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(kept, i)
				}
			}
		case u < kept[0].u: // an equal score loses: its position is later
			kept[0] = urgentJob{pj: pj, u: u, pos: pos}
			siftDown(kept, 0)
		}
	}
	slices.SortFunc(kept, cmpUrgent)
	out := make([]*cluster.PendingJob, len(kept))
	for i := range kept {
		out[i] = kept[i].pj
	}
	// Drop the pooled buffer's job pointers: a long-running server must not
	// pin a past burst's jobs via scratch.
	clear(kept)
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
