package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random LP with mixed constraint operators and a mix of
// finite and infinite upper bounds — the shapes the bounded-variable solver
// must agree on with the reference two-phase solver.
func randomLP(r *rand.Rand) *Problem {
	n := 2 + r.Intn(5)     // 2..6 vars
	mRows := 1 + r.Intn(5) // 1..5 rows
	p := New(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = math.Round((r.Float64()*4-2)*8) / 8
	}
	sense := Minimize
	if r.Intn(2) == 1 {
		sense = Maximize
	}
	p.SetObjective(c, sense)
	for j := 0; j < n; j++ {
		lo := 0.0
		if r.Intn(3) == 0 {
			lo = math.Round(r.Float64()*8) / 4 // in [0,2]
		}
		hi := math.Inf(1)
		if r.Intn(2) == 0 {
			hi = lo + math.Round(r.Float64()*16)/4 // lo + [0,4]
		}
		if err := p.SetBounds(j, lo, hi); err != nil {
			panic(err)
		}
	}
	for i := 0; i < mRows; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			coef := math.Round((r.Float64()*4-2)*4) / 4
			if coef == 0 {
				continue
			}
			terms = append(terms, Term{j, coef})
		}
		if len(terms) == 0 {
			terms = []Term{{r.Intn(n), 1}}
		}
		op := []Op{LE, GE, EQ}[r.Intn(3)]
		rhs := math.Round((r.Float64()*8-2)*4) / 4
		p.AddConstraint(terms, op, rhs)
	}
	return p
}

func checkFeasible(t *testing.T, p *Problem, x []float64, label string) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			t.Errorf("%s: x[%d]=%g outside [%g,%g]", label, j, x[j], lo, hi)
		}
	}
	for i, row := range p.rows {
		s := 0.0
		for _, term := range row.Terms {
			s += term.Coef * x[term.Var]
		}
		switch row.Op {
		case LE:
			if s > row.RHS+tol {
				t.Errorf("%s: row %d: %g !<= %g", label, i, s, row.RHS)
			}
		case GE:
			if s < row.RHS-tol {
				t.Errorf("%s: row %d: %g !>= %g", label, i, s, row.RHS)
			}
		case EQ:
			if math.Abs(s-row.RHS) > tol {
				t.Errorf("%s: row %d: %g != %g", label, i, s, row.RHS)
			}
		}
	}
}

// TestDifferentialVsReference cross-checks the bounded-variable solver
// against the retained previous-generation solver on 250 random LPs:
// statuses must agree, objectives must match to 1e-6, and both solutions
// must be feasible.
func TestDifferentialVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260728))
	for k := 0; k < 250; k++ {
		p := randomLP(r)
		got, err := p.Solve()
		if err != nil {
			t.Fatalf("case %d: Solve: %v", k, err)
		}
		want, err := SolveReference(p)
		if err != nil {
			t.Fatalf("case %d: SolveReference: %v", k, err)
		}
		if got.Status == IterLimit || want.Status == IterLimit {
			t.Errorf("case %d: iteration limit (new=%v ref=%v)", k, got.Status, want.Status)
			continue
		}
		if got.Status != want.Status {
			t.Errorf("case %d: status %v, reference %v", k, got.Status, want.Status)
			continue
		}
		if got.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Errorf("case %d: objective %.9f, reference %.9f", k, got.Objective, want.Objective)
		}
		checkFeasible(t, p, got.X, fmt.Sprintf("case %d (new)", k))
		checkFeasible(t, p, want.X, fmt.Sprintf("case %d (ref)", k))
	}
}

// TestWarmStartAfterBoundChange solves random LPs, tightens random variable
// bounds, and cross-checks the dual-simplex warm start against a cold solve
// of the modified problem.
func TestWarmStartAfterBoundChange(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	warmUsed := 0
	for k := 0; k < 250; k++ {
		p := randomLP(r)
		basis := NewBasis()
		first, err := p.SolveWarm(basis)
		if err != nil {
			t.Fatalf("case %d: cold solve: %v", k, err)
		}
		if first.Status != Optimal {
			continue
		}
		// Tighten bounds the way branch-and-bound does: split on some
		// variable's relaxation value, sometimes fixing it outright.
		for tries := 0; tries < 3; tries++ {
			v := r.Intn(p.NumVars())
			lo, hi := p.Bounds(v)
			x := first.X[v]
			var nlo, nhi float64
			switch r.Intn(3) {
			case 0:
				nlo, nhi = lo, math.Floor(x)
			case 1:
				nlo, nhi = math.Floor(x)+1, hi
			default:
				f := math.Floor(x)
				nlo, nhi = f, f
			}
			if nlo < lo {
				nlo = lo
			}
			if nhi > hi {
				nhi = hi
			}
			if nlo > nhi {
				continue
			}
			p.SetBounds(v, nlo, nhi)
			break
		}
		warm, err := p.SolveWarm(basis)
		if err != nil {
			t.Fatalf("case %d: warm solve: %v", k, err)
		}
		cold, err := p.Solve()
		if err != nil {
			t.Fatalf("case %d: cold re-solve: %v", k, err)
		}
		if warm.WarmStarted {
			warmUsed++
		}
		if warm.Status != cold.Status {
			t.Errorf("case %d: warm status %v, cold %v", k, warm.Status, cold.Status)
			continue
		}
		if warm.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Errorf("case %d: warm objective %.9f, cold %.9f", k, warm.Objective, cold.Objective)
			}
			checkFeasible(t, p, warm.X, fmt.Sprintf("case %d (warm)", k))
		}
	}
	if warmUsed == 0 {
		t.Error("no case exercised the warm-start path")
	}
	t.Logf("warm start used in %d cases", warmUsed)
}

// TestWarmStartChain replays a branch-and-bound-like chain of bound
// tightenings, warm starting each step from the previous basis, and checks
// every step against a cold solve — catching drift that single-step tests
// miss.
func TestWarmStartChain(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for k := 0; k < 60; k++ {
		p := randomLP(r)
		basis := NewBasis()
		sol, err := p.SolveWarm(basis)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		for step := 0; sol.Status == Optimal && step < 6; step++ {
			v := r.Intn(p.NumVars())
			lo, hi := p.Bounds(v)
			x := sol.X[v]
			if r.Intn(2) == 0 {
				hi = math.Floor(x)
			} else {
				lo = math.Floor(x) + 1
			}
			if lo > hi {
				break
			}
			p.SetBounds(v, lo, hi)
			sol, err = p.SolveWarm(basis)
			if err != nil {
				t.Fatalf("case %d step %d: warm: %v", k, step, err)
			}
			cold, err := p.Solve()
			if err != nil {
				t.Fatalf("case %d step %d: cold: %v", k, step, err)
			}
			if sol.Status != cold.Status {
				t.Errorf("case %d step %d: warm status %v, cold %v", k, step, sol.Status, cold.Status)
				break
			}
			if sol.Status == Optimal && math.Abs(sol.Objective-cold.Objective) > 1e-6 {
				t.Errorf("case %d step %d: warm obj %.9f, cold %.9f", k, step, sol.Objective, cold.Objective)
			}
		}
	}
}
