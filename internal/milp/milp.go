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
// The scheduler's round MILP is a transportation problem, which the
// scheduler solves with internal/transport; this package is that solver's
// test oracle and the benchmark's solver probe. The round's relaxation is
// integral, so its solves close at the root relaxation
// (TestRoundModelsCloseAtRoot pins this); the tree below the root exists
// for general models and is searched serially:
//
//   - Branching tightens variable bounds instead of appending constraint
//     rows, so every node shares the parent's constraint matrix.
//   - Each child node warm starts from its parent's simplex Basis: a bound
//     change leaves the basis dual feasible, so a short dual-simplex run
//     replaces a from-scratch two-phase solve (see lp.SolveWarm).
//   - Nodes are expanded in best-bound order; ties break on a deterministic
//     node id (root 1, children 2id and 2id+1), so a search is reproducible.
//   - Solution.Stats reports nodes, simplex iterations, warm-start hit
//     rate, and wall time for the paper's Fig. 13 overhead accounting.
package milp

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"waterwise/internal/lp"
	"waterwise/internal/transport"
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
	// Workers is kept for source compatibility.
	//
	// Deprecated: ignored; the search is serial.
	Workers int
	// disableWarmStart solves every node relaxation from scratch instead
	// of warm starting from the parent basis: the ablation the package's
	// differential tests run.
	disableWarmStart bool
}

// intTol is the integrality tolerance: a variable within it of an integer
// counts as integral.
const intTol = 1e-6

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
	return o
}

// Stats instruments one Solve call: the decision-overhead accounting of the
// paper's Fig. 13 reports these alongside wall time. It is the type the
// scheduler reports across rounds, so branch and bound and the
// transportation solver share one accounting.
type Stats = transport.Stats

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Gap       float64 // final relative optimality gap
	Stats     Stats   // solver instrumentation
}

// Problem is a MILP under construction. The zero value is not usable; call
// New.
type Problem struct {
	base   *lp.Problem
	isInt  []bool
	lo, hi []float64 // mirror of the base bounds, needed when branching
	sense  lp.Sense
	// rootBasis persists across Solve calls. When only coefficients/RHS
	// change between solves (a reused round-shaped model), the basis
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

// AddConstraint appends a sparse linear constraint.
func (p *Problem) AddConstraint(terms []lp.Term, op lp.Op, rhs float64) (int, error) {
	return p.base.AddConstraint(terms, op, rhs)
}

// Compile eagerly builds the relaxation's compressed sparse column matrix
// (otherwise built lazily on the first solve). A model reused across rounds
// calls this once; the immutable CSC arrays are then shared by every
// round, warm-start basis, and branch-and-bound node.
func (p *Problem) Compile() { p.base.Compile() }

// SetRHS changes the right-hand side of constraint i (round-to-round
// capacity updates in a reused round-shaped model).
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

// search is the state of one Solve call.
type search struct {
	p        *Problem
	opts     Options
	sgn      float64   // +1 Minimize, -1 Maximize: relaxation obj -> min space
	deadline time.Time // zero when no time limit

	open         nodeHeap
	incumbent    []float64
	incumbentObj float64 // minimization space
	limitHit     bool
	stats        Stats
}

// bestBound is the lowest bound among open nodes (+Inf when none are left).
func (s *search) bestBound() float64 {
	if len(s.open) == 0 {
		return math.Inf(1)
	}
	return s.open[0].bound
}

// run expands open nodes in best-bound order on prob, a clone of the root
// problem, until the tree is exhausted, the gap closes, or a limit hits.
func (s *search) run(prob *lp.Problem) error {
	for len(s.open) > 0 {
		if s.stats.Nodes >= s.opts.MaxNodes || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
			s.limitHit = true
			return nil
		}
		if s.incumbentObj < math.Inf(1) {
			gap := (s.incumbentObj - s.bestBound()) / math.Max(math.Abs(s.incumbentObj), 1)
			if gap <= s.opts.RelGap {
				return nil
			}
		}
		n := heap.Pop(&s.open).(*node)
		if n.bound >= s.incumbentObj-1e-9 {
			continue // pruned by bound; costs no LP solve
		}
		if err := s.process(n, prob); err != nil {
			return err
		}
	}
	return nil
}

// solveNode applies a node's bound fixes to prob and solves its relaxation,
// warm starting from the node's basis when possible. It returns (nil, nil)
// for nodes whose fixes cross (trivially infeasible).
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
	if s.opts.disableWarmStart {
		basis = nil
	} else if basis == nil {
		basis = lp.NewBasis()
	}
	sol, err := prob.SolveWarm(basis)
	if err != nil {
		return nil, nil, err
	}
	s.count(sol)
	return sol, basis, nil
}

// count adds one LP solve to the stats.
func (s *search) count(sol *lp.Solution) {
	s.stats.Nodes++
	s.stats.SimplexIters += sol.Iters
	if sol.WarmStarted {
		s.stats.WarmStarts++
	} else {
		s.stats.ColdStarts++
	}
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
// value xv at v: two children with tightened bounds on v. prob still holds
// the node's bounds; basis is the node's final basis (ownership passes to
// the left child; the right child gets a clone).
func (s *search) expand(n *node, v int, xv, obj float64, prob *lp.Problem, basis *lp.Basis) {
	lo, hi := prob.Bounds(v)
	floor := math.Floor(xv)
	child := func(fix boundFix, right bool) *node {
		fixes := append(append(make([]boundFix, 0, len(n.fixes)+1), n.fixes...), fix)
		return &node{fixes: fixes, bound: obj, id: childID(n.id, right)}
	}
	var children []*node
	if floor >= lo {
		children = append(children, child(boundFix{v, lo, floor}, false))
	}
	if floor+1 <= hi {
		children = append(children, child(boundFix{v, floor + 1, hi}, true))
	}
	if len(s.open) < maxOpenBases && !s.opts.disableWarmStart && basis.Valid() {
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
}

// process solves one popped node and prunes, records, or branches.
func (s *search) process(n *node, prob *lp.Problem) error {
	sol, basis, err := s.solveNode(prob, n)
	if err != nil {
		return err
	}
	if sol == nil || sol.Status != lp.Optimal {
		return nil // infeasible (or numerically stuck) subtree: prune
	}
	obj := s.sgn * sol.Objective
	if obj >= s.incumbentObj-1e-9 {
		return nil
	}
	if v := s.fractional(sol.X); v >= 0 {
		s.expand(n, v, sol.X[v], obj, prob, basis)
	} else {
		s.incumbentObj = obj
		s.incumbent = append(s.incumbent[:0], sol.X...)
	}
	return nil
}

// Solve runs branch and bound and returns the best solution found.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	start := time.Now()

	sgn := 1.0
	if p.sense == lp.Maximize {
		sgn = -1.0
	}
	s := &search{p: p, opts: opts, sgn: sgn, incumbentObj: math.Inf(1)}
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
	}

	finish := func(sol *Solution) *Solution {
		s.stats.Wall = time.Since(start)
		sol.Stats = s.stats
		return sol
	}

	if p.rootBasis == nil {
		p.rootBasis = lp.NewBasis()
	}
	rootBasis := p.rootBasis
	if opts.disableWarmStart {
		rootBasis = nil
	}
	rootSol, err := p.base.SolveWarm(rootBasis)
	if err != nil {
		return nil, err
	}
	s.count(rootSol)
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
	// p.base already holds exactly the root bounds, and expand only reads
	// them; the nodes below are solved on one clone.
	s.expand(&node{id: 1}, branchVar, rootSol.X[branchVar], rootObj, p.base, rootBasis)
	if err := s.run(p.base.Clone()); err != nil {
		return nil, err
	}

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
	bestBound := s.bestBound()
	sol.X = s.incumbent
	sol.Objective = sgn * s.incumbentObj
	if bestBound >= s.incumbentObj {
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
