// Package lp implements a sparse revised bounded-variable simplex solver for
// linear programs. It is the foundation that internal/milp builds
// branch-and-bound on, replacing the PuLP/GLPK stack used by the WaterWise
// paper.
//
// The solver handles:
//
//   - minimization and maximization objectives,
//   - <=, >=, and == constraints,
//   - per-variable lower and upper bounds, enforced natively in the simplex
//     ratio test (no constraint row per bound, so the tableau is O(m·n)
//     in the number of constraints m rather than O((m+n)·n)),
//   - infeasibility and unboundedness detection,
//   - warm starts: a solved Problem exports its Basis, and after variable
//     bound changes (branch-and-bound's only mutation) SolveWarm
//     re-optimizes with the dual simplex in a handful of pivots instead of
//     re-solving from scratch.
//
// The engine (simplex.go) stores the constraint matrix in compressed sparse
// column form, keeps the basis as a sparse LU factorization (lu.go) extended
// by product-form eta updates with periodic refactorization, and computes
// pivot columns and reduced costs by FTRAN/BTRAN solves — so the cost of a
// pivot tracks the matrix's nonzero count rather than m·n. Pricing is
// Dantzig scores over a rotating partial-pricing window, with an automatic
// switch to Bland's rule when an iteration budget suggests cycling, which
// guarantees termination. The first generation of this package — a two-phase
// dense tableau simplex that materializes every upper bound as an explicit
// row — is retained in reference.go as SolveReference, the oracle for
// differential tests.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects the optimization direction.
type Sense int

const (
	// Minimize the objective (the default).
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE is "less than or equal" (<=).
	LE Op = iota
	// GE is "greater than or equal" (>=).
	GE
	// EQ is equality (==).
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before convergence.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one coefficient in a sparse constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear constraint: sum(Terms) Op RHS.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Problem is a linear program under construction. Create one with New, add
// the objective, bounds, and constraints, then call Solve.
type Problem struct {
	nvars  int
	sense  Sense
	obj    []float64
	lower  []float64
	upper  []float64
	rows   []Constraint
	maxIt  int
	epsTol float64
	// cscCache is the constraint matrix in compressed sparse column form,
	// built lazily on the first solve and shared by clones, warm-start bases,
	// and branch-and-bound nodes (it depends only on the constraint
	// structure, which AddConstraint alone mutates).
	cscCache *csc
}

// New returns a Problem with nvars decision variables, all with default
// bounds [0, +inf) and zero objective coefficients.
func New(nvars int) *Problem {
	p := &Problem{
		nvars:  nvars,
		obj:    make([]float64, nvars),
		lower:  make([]float64, nvars),
		upper:  make([]float64, nvars),
		maxIt:  0,
		epsTol: 1e-9,
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.nvars }

// SetObjective replaces the whole objective vector.
func (p *Problem) SetObjective(c []float64, sense Sense) error {
	if len(c) != p.nvars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.nvars)
	}
	copy(p.obj, c)
	p.sense = sense
	return nil
}

// SetBounds sets lo <= x[i] <= hi. Use math.Inf(1) for an unbounded upper.
func (p *Problem) SetBounds(i int, lo, hi float64) error {
	if i < 0 || i >= p.nvars {
		return fmt.Errorf("lp: bounds variable %d out of range [0,%d)", i, p.nvars)
	}
	if lo > hi {
		return fmt.Errorf("lp: variable %d has lower bound %g > upper bound %g", i, lo, hi)
	}
	if math.IsInf(lo, -1) {
		return errors.New("lp: free (lower-unbounded) variables are not supported")
	}
	p.lower[i] = lo
	p.upper[i] = hi
	return nil
}

// Bounds returns the current bounds of variable i.
func (p *Problem) Bounds(i int) (lo, hi float64) { return p.lower[i], p.upper[i] }

// ResetBounds replaces the bounds of every variable at once; branch and bound
// uses it to rebuild a node's box from the root bounds in one copy.
func (p *Problem) ResetBounds(lo, hi []float64) error {
	if len(lo) != p.nvars || len(hi) != p.nvars {
		return fmt.Errorf("lp: ResetBounds got %d/%d bounds, want %d", len(lo), len(hi), p.nvars)
	}
	copy(p.lower, lo)
	copy(p.upper, hi)
	return nil
}

// AddConstraint appends a sparse constraint row and returns its index.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) (int, error) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.nvars {
			return 0, fmt.Errorf("lp: constraint references variable %d out of range [0,%d)", t.Var, p.nvars)
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, Constraint{Terms: cp, Op: op, RHS: rhs})
	p.cscCache = nil // constraint structure changed
	return len(p.rows) - 1, nil
}

// structCSC returns the cached CSC form of the constraint matrix, building it
// on first use.
func (p *Problem) structCSC() *csc {
	if p.cscCache == nil {
		p.cscCache = buildCSC(p.nvars, p.rows)
	}
	return p.cscCache
}

// Compile eagerly builds the problem's compressed sparse column matrix (it is
// otherwise built lazily on the first solve). A model reused across rounds
// calls this once so every round — and the clone branch and bound solves its
// nodes on — reuses the same immutable CSC arrays.
func (p *Problem) Compile() { p.structCSC() }

// SetRHS changes the right-hand side of constraint i in place. Round-to-round
// model reuse (a round-shaped model's capacity rows) updates RHS values
// instead of rebuilding the whole problem.
func (p *Problem) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.rows) {
		return fmt.Errorf("lp: constraint %d out of range [0,%d)", i, len(p.rows))
	}
	p.rows[i].RHS = rhs
	return nil
}

// Clone returns a deep copy of the problem; branch-and-bound uses this to
// tighten variable bounds without disturbing the parent node.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		nvars:  p.nvars,
		sense:  p.sense,
		obj:    append([]float64(nil), p.obj...),
		lower:  append([]float64(nil), p.lower...),
		upper:  append([]float64(nil), p.upper...),
		rows:   make([]Constraint, len(p.rows)),
		maxIt:  p.maxIt,
		epsTol: p.epsTol,
		// The CSC cache is immutable once built; clones share it until either
		// side changes the constraint structure (which resets its own cache).
		cscCache: p.cscCache,
	}
	// Constraint term slices are never mutated after AddConstraint, so the
	// rows may share term backing arrays safely.
	copy(q.rows, p.rows)
	return q
}

// Solution is the result of a successful or failed solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Iters     int
	// WarmStarted reports whether this solve reused a Basis instead of
	// running the two-phase method from scratch.
	WarmStarted bool
}

// Basis is a reusable snapshot of solver state: the basis headers (basic
// column per position, column statuses, bounds, costs, and original RHS) of a
// solved Problem. Reviving one refactorizes the basis matrix from those
// headers and re-solves the basic values — there is no tableau snapshot to
// replay, so a Basis is O(m + n) to clone. After the problem's variable
// bounds change (the only mutation branch-and-bound performs), SolveWarm
// restores optimality with a short dual-simplex run instead of a
// from-scratch solve.
//
// A Basis is only meaningful for a Problem with the same constraints and
// objective as the one that produced it; SolveWarm detects objective drift
// (via dual infeasibility) and falls back to a cold solve. A Basis is not
// safe for concurrent use; Clone gives each branch-and-bound child its own.
type Basis struct {
	s *simplex
}

// NewBasis returns an empty basis: the first SolveWarm through it runs cold
// and stores the resulting state.
func NewBasis() *Basis { return &Basis{} }

// Valid reports whether the basis holds reusable solver state.
func (b *Basis) Valid() bool { return b != nil && b.s != nil }

// Clone returns an independent deep copy of the basis.
func (b *Basis) Clone() *Basis {
	if !b.Valid() {
		return &Basis{}
	}
	return &Basis{s: b.s.clone()}
}

// Solve runs the bounded-variable simplex from scratch and returns the
// solution. The returned error is non-nil only for malformed problems;
// infeasible and unbounded models are reported via Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWarm(nil)
}

// SolveWarm solves the problem, reusing b when possible. A nil b (or an
// empty one) runs the two-phase method cold; a valid b from a prior solve of
// a structurally identical problem warm starts the dual simplex from the
// stored basis. On return, a non-nil b holds the final state for the next
// warm start.
func (p *Problem) SolveWarm(b *Basis) (*Solution, error) {
	return p.solveReusing(b, func(s *simplex) (Status, bool) {
		if !s.warmApply(p) {
			return Optimal, false
		}
		return s.solveWarm(), true
	})
}

// SolveReprice solves the problem like SolveWarm, but additionally revives a
// basis whose objective coefficients or constraint right-hand sides have
// changed since it was stored. Where SolveWarm treats any objective/RHS drift
// as grounds for a cold solve, SolveReprice re-prices the stored engine in
// place: the basis matrix is refactorized from the stored headers, the basic
// values are re-solved against the new RHS and bounds (x_B = B⁻¹(b − N·x_N),
// one FTRAN — EQ-row RHS changes revive like any other, which the old dense
// tableau could not do), the new objective is installed, and — provided the
// revived vertex is still primal feasible — the primal simplex walks it to
// the new optimum. This is the cross-round warm start of a reused
// round-shaped model: between rounds the model keeps its shape but every
// cost, capacity RHS, and pair-forbidding bound changes. Shape changes,
// nonbasic columns stranded at infinite bounds, singular stored bases, and
// revived vertices knocked primal-infeasible by the new bounds/RHS all fall
// back to a cold solve (reusing the basis's allocations), so answers never
// depend on the warm path.
func (p *Problem) SolveReprice(b *Basis) (*Solution, error) {
	return p.solveReusing(b, func(s *simplex) (Status, bool) {
		if !s.repriceBase(p) {
			return Optimal, false
		}
		if !s.primalFeasible() {
			// Basic values out of bounds (capacity shrank, or a basic pair
			// got forbidden). Repairing feasibility from a stale vertex via
			// the dual simplex measurably costs more pivots than the
			// triangular crash start, so rebuild cold instead.
			return Optimal, false
		}
		s.repriceCost(p)
		// The old optimum survived the bound/RHS changes: the primal simplex
		// walks it to the new optimum, skipping tableau construction, the
		// crash, and phase 1 entirely (no dual feasibility needed at the
		// start of a primal run).
		return s.primal(s.nreal), true
	})
}

// solveReusing is the shared SolveWarm/SolveReprice driver: revive tries to
// reuse the basis's engine state and re-optimize, reporting (status, true) on
// a completed warm attempt; any doubt ((_, false), or a non-conclusive
// status) falls back to a cold solve that reuses the engine's allocations.
func (p *Problem) solveReusing(b *Basis, revive func(*simplex) (Status, bool)) (*Solution, error) {
	var recycled *simplex
	if b != nil && b.Valid() {
		s := b.s
		if s.nstruct == p.nvars && s.m == len(p.rows) {
			if st, attempted := revive(s); attempted {
				switch st {
				case Optimal:
					sol := s.extract(p)
					sol.Status = Optimal
					sol.WarmStarted = true
					p.finishSense(sol)
					return sol, nil
				case Infeasible:
					return &Solution{Status: Infeasible, Iters: s.iters, WarmStarted: true}, nil
				}
			}
		}
		// The stored state is stale (drift beyond what revive can absorb),
		// the wrong shape, or mid-run after an iteration limit: useless as a
		// warm start, but its allocations can back the cold solve.
		recycled = b.s
		b.s = nil
	}
	s := newSimplex(p, recycled)
	st := s.solveCold()
	sol := &Solution{Status: st, Iters: s.iters}
	if st == Optimal || st == IterLimit {
		sol = s.extract(p)
		sol.Status = st
	}
	p.finishSense(sol)
	if b != nil && sol.Status == Optimal {
		b.s = s
	}
	return sol, nil
}

// finishSense converts the internal minimization objective back to the
// caller's sense.
func (p *Problem) finishSense(sol *Solution) {
	if p.sense == Maximize && (sol.Status == Optimal || sol.Status == IterLimit) {
		sol.Objective = -sol.Objective
	}
}
