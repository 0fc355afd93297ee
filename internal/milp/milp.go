// Package milp implements a mixed-integer linear programming solver via
// best-bound branch and bound over the LP relaxations provided by
// internal/lp. Together the two packages replace the PuLP + GLPK stack the
// WaterWise paper uses for its Optimization Decision Controller.
//
// The solver supports binary and general-integer variables mixed with
// continuous ones (the soft-constraint penalty variables of Eq. 12–13 are
// continuous), node/gap/time limits, and returns the best incumbent found
// with a bound-based optimality certificate when search completes.
//
// Throughput features (the system's hot path is one MILP per scheduling
// round, so the solver is rearchitected for speed):
//
//   - Branching tightens variable bounds instead of appending constraint
//     rows, so every node shares the parent's constraint matrix.
//   - Each child node warm starts from its parent's simplex Basis: a bound
//     change leaves the basis dual feasible, so a short dual-simplex run
//     replaces a from-scratch two-phase solve (see lp.SolveWarm).
//   - Reduced-cost fixing pins integer variables whose LP reduced cost
//     proves they cannot move off their bound in any improving solution.
//   - A rounding/diving primal heuristic runs at the root to produce an
//     early incumbent for pruning.
//   - Node exploration runs on a configurable worker pool (Options.Workers)
//     with deterministic best-bound node selection: ties break on a
//     deterministic node id (root 1, children 2id and 2id+1), and a search
//     run to completion returns the same objective at any worker count.
//   - Solution.Stats reports nodes, simplex iterations, warm-start hit
//     rate, and wall time for the paper's Fig. 13 overhead accounting.
package milp

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"waterwise/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

const (
	// Optimal means an integer-feasible solution with a closed gap.
	Optimal Status = iota
	// Feasible means an incumbent was found but search stopped early
	// (node, gap, or time limit).
	Feasible
	// Infeasible means no integer-feasible solution exists.
	Infeasible
	// Unbounded means the relaxation is unbounded below.
	Unbounded
	// Limit means a limit was hit before any incumbent was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "unknown"
}

// Options bound the branch-and-bound search.
type Options struct {
	// MaxNodes limits explored nodes; 0 means the default (100000).
	MaxNodes int
	// RelGap terminates when (incumbent-bound)/max(|incumbent|,1) falls
	// below this value; 0 means prove exact optimality (within tolerance).
	RelGap float64
	// TimeLimit caps wall-clock search time; 0 means no limit.
	TimeLimit time.Duration
	// Workers sets the node-exploration worker count; 0 or 1 runs the
	// search serially (the scheduler resolves 0 to AutoWorkers(batch)
	// before solving, so large rounds parallelize by default). A search
	// that runs to completion (no node, gap, or time limit) returns the
	// same objective at any worker count.
	Workers int
	// DisableWarmStart solves every node relaxation from scratch instead
	// of warm starting from the parent basis (ablation/debugging).
	DisableWarmStart bool
	// RepriceWarmStart carries the root LP basis *across* Solve calls on a
	// reused Problem: when only the objective, RHS, and variable bounds
	// changed since the previous Solve (the scheduler's cached round model),
	// the root relaxation is revived by re-pricing (lp.SolveReprice) instead
	// of solving cold. Answers never change — any doubt falls back to a cold
	// solve — only the root simplex iteration count does.
	RepriceWarmStart bool
	// DisableHeuristic turns off the root diving/rounding heuristic.
	DisableHeuristic bool
	// Seed makes tie-breaking in the diving heuristic deterministic; the
	// final objective of a completed search does not depend on it.
	Seed int64
}

// intTol is the integrality tolerance: a variable within it of an integer
// counts as integral.
const intTol = 1e-6

// autoWorkersBatch is the batch size from which AutoWorkers starts handing
// out more than one worker; below it the per-node LPs are too cheap for the
// pool's coordination to pay off.
const autoWorkersBatch = 200

// AutoWorkers picks a node-exploration worker count for a scheduling round of
// the given batch size (jobs in the round MILP): 1 below 200 jobs, then
// min(GOMAXPROCS, batch/64). The scheduler wires this in when the caller left
// SchedulerConfig.SolverWorkers unset, so thousand-job batches spread across
// cores by default while small rounds stay serial. A completed search returns
// the same objective at any worker count, so the default never changes
// answers.
func AutoWorkers(batch int) int {
	if batch < autoWorkersBatch {
		return 1
	}
	w := batch / 64
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Stats instruments one Solve call: the decision-overhead accounting of the
// paper's Fig. 13 reports these alongside wall time.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes whose LP relaxation
	// was solved (heuristic solves excluded).
	Nodes int
	// SimplexIters is the total simplex pivot count across all LP solves,
	// including the diving heuristic.
	SimplexIters int
	// WarmStarts counts LP solves served by a dual-simplex warm start.
	WarmStarts int
	// ColdStarts counts LP solves that ran the two-phase method from
	// scratch (the root, plus any warm-start fallbacks).
	ColdStarts int
	// HeuristicIncumbents counts incumbents contributed by the diving
	// heuristic.
	HeuristicIncumbents int
	// Wall is the wall-clock solve time.
	Wall time.Duration
}

// WarmStartHitRate is the fraction of LP solves served by a warm start.
func (s Stats) WarmStartHitRate() float64 {
	total := s.WarmStarts + s.ColdStarts
	if total == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(total)
}

// Add accumulates other into s (for cross-round aggregation).
func (s *Stats) Add(other Stats) {
	s.Nodes += other.Nodes
	s.SimplexIters += other.SimplexIters
	s.WarmStarts += other.WarmStarts
	s.ColdStarts += other.ColdStarts
	s.HeuristicIncumbents += other.HeuristicIncumbents
	s.Wall += other.Wall
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Nodes     int           // branch-and-bound nodes explored (== Stats.Nodes)
	Gap       float64       // final relative optimality gap
	Runtime   time.Duration // wall-clock solve time (== Stats.Wall)
	Stats     Stats         // solver instrumentation
}

// Problem is a MILP under construction. The zero value is not usable; call
// New.
type Problem struct {
	base   *lp.Problem
	isInt  []bool
	lo, hi []float64 // mirror of the base bounds, needed when branching
	sense  lp.Sense
	// rootBasis persists across Solve calls. When only coefficients/RHS
	// change between solves (the scheduler's reused round model), the basis
	// itself is stale — lp.SolveWarm detects that — but its allocations
	// back the next cold solve, keeping the hot path off the allocator.
	// Solve is therefore not safe for concurrent use on one Problem.
	rootBasis *lp.Basis
}

// New returns a MILP with nvars variables, all continuous with bounds
// [0, +inf).
func New(nvars int) *Problem {
	p := &Problem{
		base:  lp.New(nvars),
		isInt: make([]bool, nvars),
		lo:    make([]float64, nvars),
		hi:    make([]float64, nvars),
	}
	for i := range p.hi {
		p.hi[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.base.NumVars() }

// SetObjective sets the objective vector and direction.
func (p *Problem) SetObjective(c []float64, sense lp.Sense) error {
	p.sense = sense
	return p.base.SetObjective(c, sense)
}

// SetBounds sets the bounds of variable i.
func (p *Problem) SetBounds(i int, lo, hi float64) error {
	if err := p.base.SetBounds(i, lo, hi); err != nil {
		return err
	}
	p.lo[i], p.hi[i] = lo, hi
	return nil
}

// ResetVarBounds sets every variable's bounds to [lo, hi]. Round-to-round
// model reuse uses it to clear the previous round's pair-forbidding fixes in
// one pass before installing the new ones.
func (p *Problem) ResetVarBounds(lo, hi float64) error {
	for i := range p.lo {
		p.lo[i], p.hi[i] = lo, hi
	}
	return p.base.ResetBounds(p.lo, p.hi)
}

// SetBinary marks variable i as binary (integer in {0,1}).
func (p *Problem) SetBinary(i int) error {
	if err := p.SetBounds(i, 0, 1); err != nil {
		return err
	}
	p.isInt[i] = true
	return nil
}

// SetImpliedBinary marks variable i as integer WITHOUT installing the
// explicit [0,1] bound. Use it when the constraint matrix already implies
// x_i <= 1 (e.g. an assignment row Σ_j x_ij = 1 with x >= 0). The caller is
// responsible for the implication actually holding.
func (p *Problem) SetImpliedBinary(i int) error {
	if i < 0 || i >= len(p.isInt) {
		return fmt.Errorf("milp: variable %d out of range [0,%d)", i, len(p.isInt))
	}
	p.isInt[i] = true
	return nil
}

// SetInteger marks variable i as a general integer (bounds must be set
// separately; the default lower bound is 0).
func (p *Problem) SetInteger(i int) error {
	if i < 0 || i >= len(p.isInt) {
		return fmt.Errorf("milp: variable %d out of range [0,%d)", i, len(p.isInt))
	}
	p.isInt[i] = true
	return nil
}

// AddConstraint appends a sparse linear constraint.
func (p *Problem) AddConstraint(terms []lp.Term, op lp.Op, rhs float64) (int, error) {
	return p.base.AddConstraint(terms, op, rhs)
}

// Compile eagerly builds the relaxation's compressed sparse column matrix
// (otherwise built lazily on the first solve). The scheduler's round-model
// cache calls this once per batch shape; the immutable CSC arrays are then
// shared by every round, warm-start basis, and branch-and-bound worker.
func (p *Problem) Compile() { p.base.Compile() }

// SetRHS changes the right-hand side of constraint i (round-to-round
// capacity updates in the scheduler's reused model).
func (p *Problem) SetRHS(i int, rhs float64) error {
	return p.base.SetRHS(i, rhs)
}

// boundFix is one bound tightening on the path from the root to a node.
type boundFix struct {
	v      int
	lo, hi float64
}

// node is a branch-and-bound search node: the root problem plus bound
// tightenings, keyed by its parent's LP bound for best-bound expansion.
type node struct {
	fixes []boundFix
	basis *lp.Basis // parent's final basis (owned by this node); nil = cold
	bound float64   // parent LP relaxation objective (minimization space)
	id    uint64    // deterministic tie-break: root 1, children 2id, 2id+1
}

// childID derives a deterministic heap tie-break id. Beyond 63 levels the
// ids saturate (ties then break arbitrarily among ultra-deep nodes, which
// only affects exploration order, never a completed search's objective).
func childID(parent uint64, right bool) uint64 {
	if parent >= 1<<62 {
		return parent
	}
	id := parent << 1
	if right {
		id |= 1
	}
	return id
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// maxOpenBases bounds warm-start memory: once the open list grows past this,
// new nodes are pushed without a basis and solved cold if ever expanded.
const maxOpenBases = 2048

// search is the shared state of one Solve call.
type search struct {
	p        *Problem
	opts     Options
	sgn      float64   // +1 Minimize, -1 Maximize: relaxation obj -> min space
	deadline time.Time // zero when no time limit

	mu           sync.Mutex
	cond         *sync.Cond
	open         nodeHeap
	inflight     map[uint64]float64 // id -> bound of nodes being processed
	incumbent    []float64
	incumbentObj float64 // minimization space
	limitHit     bool
	gapHit       bool
	err          error
	stats        Stats
}

func (s *search) globalBoundLocked() float64 {
	b := math.Inf(1)
	if len(s.open) > 0 {
		b = s.open[0].bound
	}
	for _, ib := range s.inflight {
		if ib < b {
			b = ib
		}
	}
	return b
}

// consider offers an integer-feasible point as the incumbent.
func (s *search) consider(x []float64, obj float64, heuristic bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj < s.incumbentObj-1e-12 {
		s.incumbentObj = obj
		s.incumbent = append(s.incumbent[:0], x...)
		if heuristic {
			s.stats.HeuristicIncumbents++
		}
	}
}

func (s *search) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next pops the best open node, blocking while other workers may still push
// children. It returns nil when the search is over (exhausted, limited, or
// failed).
func (s *search) next() *node {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || s.limitHit || s.gapHit {
			return nil
		}
		if len(s.open) > 0 {
			if s.stats.Nodes >= s.opts.MaxNodes {
				s.limitHit = true
				s.cond.Broadcast()
				return nil
			}
			if !s.deadline.IsZero() && time.Now().After(s.deadline) {
				s.limitHit = true
				s.cond.Broadcast()
				return nil
			}
			if s.incumbentObj < math.Inf(1) {
				gap := (s.incumbentObj - s.globalBoundLocked()) / math.Max(math.Abs(s.incumbentObj), 1)
				if gap <= s.opts.RelGap {
					s.gapHit = true
					s.cond.Broadcast()
					return nil
				}
			}
			n := heap.Pop(&s.open).(*node)
			if n.bound >= s.incumbentObj-1e-9 {
				continue // pruned by bound; costs no LP solve
			}
			s.inflight[n.id] = n.bound
			return n
		}
		if len(s.inflight) == 0 {
			return nil // tree exhausted
		}
		s.cond.Wait()
	}
}

func (s *search) done(n *node) {
	s.mu.Lock()
	delete(s.inflight, n.id)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// solveNode applies a node's bound fixes to the worker's problem clone and
// solves its relaxation, warm starting from the node's basis when possible.
// It returns (nil, nil) for nodes whose fixes cross (trivially infeasible).
func (s *search) solveNode(prob *lp.Problem, n *node) (*lp.Solution, *lp.Basis, error) {
	if err := prob.ResetBounds(s.p.lo, s.p.hi); err != nil {
		return nil, nil, err
	}
	for _, bf := range n.fixes {
		if bf.lo > bf.hi {
			return nil, nil, nil
		}
		if err := prob.SetBounds(bf.v, bf.lo, bf.hi); err != nil {
			return nil, nil, err
		}
	}
	basis := n.basis
	if s.opts.DisableWarmStart {
		basis = nil
	} else if basis == nil {
		basis = lp.NewBasis()
	}
	sol, err := prob.SolveWarm(basis)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.stats.SimplexIters += sol.Iters
	if sol.WarmStarted {
		s.stats.WarmStarts++
	} else {
		s.stats.ColdStarts++
	}
	s.stats.Nodes++
	s.mu.Unlock()
	return sol, basis, nil
}

// fractional returns the integer variable farthest from integrality, or -1
// when x is integer feasible. Deterministic: first index among ties.
func (s *search) fractional(x []float64) int {
	bestV, bestDist := -1, -1.0
	for i, isI := range s.p.isInt {
		if !isI {
			continue
		}
		f := x[i] - math.Floor(x[i])
		d := math.Min(f, 1-f)
		if d > intTol && d > bestDist {
			bestDist = d
			bestV = i
		}
	}
	return bestV
}

// expand branches a node whose relaxation solved Optimal with fractional
// value at v: two children with tightened bounds on v, plus any
// reduced-cost fixes the LP solution proves. prob still holds the node's
// bounds; basis is the node's final basis (ownership passes to the left
// child; the right child gets a clone).
func (s *search) expand(n *node, v int, sol *lp.Solution, obj float64, prob *lp.Problem, basis *lp.Basis) {
	s.mu.Lock()
	incumbent := s.incumbentObj
	s.mu.Unlock()

	// Reduced-cost fixing: an integer variable sitting at its bound with
	// reduced cost d cannot move (integers move in whole units, costing at
	// least |d| each) in any solution better than the incumbent when
	// obj + |d| already meets it. Fixing shrinks both children's boxes.
	var rcFixes []boundFix
	if sol.ReducedCosts != nil && incumbent < math.Inf(1) {
		for j, isI := range s.p.isInt {
			if !isI || j == v {
				continue
			}
			lo, hi := prob.Bounds(j)
			if lo == hi {
				continue
			}
			d := sol.ReducedCosts[j]
			switch {
			case d > 1e-9 && sol.X[j] <= lo+intTol:
				if obj+d >= incumbent-1e-9 {
					rcFixes = append(rcFixes, boundFix{j, lo, lo})
				}
			case d < -1e-9 && !math.IsInf(hi, 1) && sol.X[j] >= hi-intTol:
				if obj-d >= incumbent-1e-9 {
					rcFixes = append(rcFixes, boundFix{j, hi, hi})
				}
			}
		}
	}

	lo, hi := prob.Bounds(v)
	floor := math.Floor(sol.X[v])
	base := make([]boundFix, 0, len(n.fixes)+len(rcFixes)+1)
	base = append(base, n.fixes...)
	base = append(base, rcFixes...)

	var children []*node
	if floor >= lo {
		left := &node{
			fixes: append(append([]boundFix(nil), base...), boundFix{v, lo, floor}),
			bound: obj, id: childID(n.id, false),
		}
		children = append(children, left)
	}
	if floor+1 <= hi {
		right := &node{
			fixes: append(append([]boundFix(nil), base...), boundFix{v, floor + 1, hi}),
			bound: obj, id: childID(n.id, true),
		}
		children = append(children, right)
	}

	s.mu.Lock()
	withBasis := len(s.open) < maxOpenBases && !s.opts.DisableWarmStart
	if withBasis && basis.Valid() {
		if len(children) > 0 {
			children[0].basis = basis // transfer ownership
		}
		if len(children) > 1 {
			children[1].basis = basis.Clone()
		}
	}
	for _, c := range children {
		heap.Push(&s.open, c)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// process solves one popped node and prunes, records, or branches.
func (s *search) process(n *node, prob *lp.Problem) {
	sol, basis, err := s.solveNode(prob, n)
	if err != nil {
		s.fail(err)
		return
	}
	if sol == nil || sol.Status != lp.Optimal {
		return // infeasible (or numerically stuck) subtree: prune
	}
	obj := s.sgn * sol.Objective
	s.mu.Lock()
	incumbent := s.incumbentObj
	s.mu.Unlock()
	if obj >= incumbent-1e-9 {
		return
	}
	if v := s.fractional(sol.X); v >= 0 {
		s.expand(n, v, sol, obj, prob, basis)
	} else {
		s.consider(sol.X, obj, false)
	}
}

func (s *search) worker() {
	prob := s.p.base.Clone()
	for {
		n := s.next()
		if n == nil {
			return
		}
		s.process(n, prob)
		s.done(n)
	}
}

// dive runs the rounding/diving primal heuristic from the root relaxation:
// repeatedly fix the fractional integer variable closest to integrality to
// its rounded value and warm-resolve, hoping to land on an integer-feasible
// point quickly. Any incumbent it finds seeds bound pruning for the whole
// tree. Tie-breaks use opts.Seed; the completed search's objective does not
// depend on them.
func (s *search) dive(rootBasis *lp.Basis, rootX []float64) {
	if s.opts.DisableHeuristic {
		return
	}
	prob := s.p.base.Clone()
	// Warm starts make each dive step a few dual pivots; without a basis
	// (DisableWarmStart) the dive still runs, just on cold solves — the
	// two ablation switches stay independent.
	var basis *lp.Basis
	if rootBasis.Valid() {
		basis = rootBasis.Clone()
	}
	x := append([]float64(nil), rootX...)
	rng := rand.New(rand.NewSource(s.opts.Seed))
	maxDepth := 0
	for _, isI := range s.p.isInt {
		if isI {
			maxDepth++
		}
	}
	for depth := 0; depth <= maxDepth; depth++ {
		// Most-integral fractional variable; ties broken by seeded RNG.
		v, bestDist := -1, math.Inf(1)
		ties := 0
		for i, isI := range s.p.isInt {
			if !isI {
				continue
			}
			f := x[i] - math.Floor(x[i])
			d := math.Min(f, 1-f)
			if d <= intTol {
				continue
			}
			switch {
			case d < bestDist-1e-9:
				bestDist = d
				v = i
				ties = 1
			case d < bestDist+1e-9:
				ties++
				if rng.Intn(ties) == 0 {
					v = i
				}
			}
		}
		if v == -1 {
			obj := 0.0
			for j := range x {
				obj += s.p.base.ObjectiveCoef(j) * x[j]
			}
			s.consider(x, s.sgn*obj, true)
			return
		}
		lo, hi := prob.Bounds(v)
		r := math.Round(x[v])
		if r < lo {
			r = math.Ceil(lo)
		}
		if r > hi {
			r = math.Floor(hi)
		}
		if r < lo || r > hi {
			return
		}
		if err := prob.SetBounds(v, r, r); err != nil {
			return
		}
		sol, err := prob.SolveWarm(basis)
		if err != nil || sol.Status != lp.Optimal {
			return
		}
		s.mu.Lock()
		s.stats.SimplexIters += sol.Iters
		if sol.WarmStarted {
			s.stats.WarmStarts++
		} else {
			s.stats.ColdStarts++
		}
		incumbent := s.incumbentObj
		s.mu.Unlock()
		if s.sgn*sol.Objective >= incumbent-1e-9 {
			return
		}
		x = sol.X
	}
}

// Solve runs branch and bound and returns the best solution found.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	start := time.Now()

	sgn := 1.0
	if p.sense == lp.Maximize {
		sgn = -1.0
	}
	s := &search{
		p: p, opts: opts, sgn: sgn,
		inflight:     make(map[uint64]float64),
		incumbentObj: math.Inf(1),
	}
	s.cond = sync.NewCond(&s.mu)
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
	}

	finish := func(sol *Solution) *Solution {
		sol.Runtime = time.Since(start)
		s.stats.Wall = sol.Runtime
		sol.Stats = s.stats
		sol.Nodes = s.stats.Nodes
		return sol
	}

	// Root relaxation: solved inline (serially) so terminal statuses and
	// the diving heuristic happen before workers spawn.
	if p.rootBasis == nil {
		p.rootBasis = lp.NewBasis()
	}
	rootBasis := p.rootBasis
	if opts.DisableWarmStart {
		rootBasis = nil
	}
	var rootSol *lp.Solution
	var err error
	if opts.RepriceWarmStart {
		// Cross-round warm start: revive the previous Solve's root basis by
		// re-pricing the changed objective/RHS in place.
		rootSol, err = p.base.SolveReprice(rootBasis)
	} else {
		rootSol, err = p.base.SolveWarm(rootBasis)
	}
	if err != nil {
		return nil, err
	}
	s.stats.Nodes, s.stats.SimplexIters = 1, rootSol.Iters
	if rootSol.WarmStarted {
		s.stats.WarmStarts = 1
	} else {
		s.stats.ColdStarts = 1
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return finish(&Solution{Status: Infeasible, Gap: math.Inf(1)}), nil
	case lp.Unbounded:
		return finish(&Solution{Status: Unbounded, Gap: math.Inf(1)}), nil
	case lp.IterLimit:
		return finish(&Solution{Status: Limit, Gap: math.Inf(1)}), nil
	}
	rootObj := sgn * rootSol.Objective
	branchVar := s.fractional(rootSol.X)
	if branchVar == -1 {
		// Integral root: done without any branching.
		return finish(&Solution{
			Status:    Optimal,
			Objective: sgn * rootObj,
			X:         rootSol.X,
			Gap:       0,
		}), nil
	}
	s.dive(rootBasis, rootSol.X)
	rootNode := &node{bound: rootObj, id: 1}
	s.inflight[1] = rootObj // mirrors a worker mid-expansion
	// p.base already holds exactly the root bounds, and expand only reads
	// them — no clone needed.
	s.expand(rootNode, branchVar, rootSol, rootObj, p.base, rootBasis)
	s.done(rootNode)

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
	if s.err != nil {
		return nil, s.err
	}

	bestBound := s.globalBoundLocked() // workers joined: no lock contention
	sol := &Solution{}
	if s.incumbent == nil {
		if s.limitHit {
			sol.Status = Limit
		} else {
			sol.Status = Infeasible
		}
		sol.Gap = math.Inf(1)
		return finish(sol), nil
	}
	sol.X = s.incumbent
	sol.Objective = sgn * s.incumbentObj
	if math.IsInf(bestBound, 1) || bestBound >= s.incumbentObj {
		bestBound = s.incumbentObj
	}
	sol.Gap = (s.incumbentObj - bestBound) / math.Max(math.Abs(s.incumbentObj), 1)
	if sol.Gap <= opts.RelGap {
		sol.Status = Optimal
	} else {
		sol.Status = Feasible
	}
	return finish(sol), nil
}
