package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig)
	// optimum (2, 6) objective 36.
	p := New(2)
	if err := p.SetObjective([]float64{3, 5}, Maximize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 36, 1e-6) {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if !almostEq(sol.X[0], 2, 1e-6) || !almostEq(sol.X[1], 6, 1e-6) {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 -> optimum (4,0) obj 8.
	p := New(2)
	if err := p.SetObjective([]float64{2, 3}, Minimize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 8, 1e-6) {
		t.Errorf("objective = %g, want 8", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y == 6, x <= 4 -> (0,3) obj 3.
	p := New(2)
	if err := p.SetObjective([]float64{1, 1}, Minimize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, EQ, 6)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 3, 1e-6) {
		t.Errorf("objective = %g, want 3", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := New(1)
	p.AddConstraint([]Term{{0, 1}}, GE, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 3)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(1)
	if err := p.SetObjective([]float64{1}, Maximize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 1}}, GE, 0)
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestVariableBounds(t *testing.T) {
	// max x + y with 1 <= x <= 3, 0 <= y <= 2 -> (3,2) obj 5.
	p := New(2)
	if err := p.SetObjective([]float64{1, 1}, Maximize); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 5, 1e-6) {
		t.Errorf("objective = %g, want 5", sol.Objective)
	}
	if !almostEq(sol.X[0], 3, 1e-6) || !almostEq(sol.X[1], 2, 1e-6) {
		t.Errorf("x = %v, want [3 2]", sol.X)
	}
}

func TestNonZeroLowerBoundShift(t *testing.T) {
	// min x s.t. x >= 0 but bound lo=2 -> x = 2.
	p := New(1)
	if err := p.SetObjective([]float64{1}, Minimize); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(0, 2, 10); err != nil {
		t.Fatal(err)
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal || !almostEq(sol.X[0], 2, 1e-9) {
		t.Fatalf("got %v x=%v, want optimal x=2", sol.Status, sol.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x+y s.t. -x - y <= -3 (i.e. x+y >= 3) -> obj 3.
	p := New(2)
	if err := p.SetObjective([]float64{1, 1}, Minimize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, -1}, {1, -1}}, LE, -3)
	sol := mustSolve(t, p)
	if sol.Status != Optimal || !almostEq(sol.Objective, 3, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal obj=3", sol.Status, sol.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Degenerate problem (Beale's cycling example without Bland would cycle).
	p := New(4)
	if err := p.SetObjective([]float64{-0.75, 150, -0.02, 6}, Minimize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, -0.05, 1e-6) {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestAssignmentLPIsIntegral(t *testing.T) {
	// 3 jobs x 3 regions assignment with capacities: the LP relaxation of an
	// assignment problem has integral optima (totally unimodular matrix).
	costs := [][]float64{{4, 2, 8}, {4, 3, 7}, {3, 1, 6}}
	p := New(9)
	obj := make([]float64, 9)
	for m := 0; m < 3; m++ {
		for n := 0; n < 3; n++ {
			obj[m*3+n] = costs[m][n]
			if err := p.SetBounds(m*3+n, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.SetObjective(obj, Minimize); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		terms := []Term{{m * 3, 1}, {m*3 + 1, 1}, {m*3 + 2, 1}}
		p.AddConstraint(terms, EQ, 1)
	}
	for n := 0; n < 3; n++ {
		terms := []Term{{n, 1}, {3 + n, 1}, {6 + n, 1}}
		p.AddConstraint(terms, LE, 1)
	}
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	for i, x := range sol.X {
		if !almostEq(x, 0, 1e-7) && !almostEq(x, 1, 1e-7) {
			t.Errorf("x[%d] = %g, not integral", i, x)
		}
	}
	// Optimal assignment: job0->col1(2), job1->col0(4) or col2, job2->col2(6)?
	// brute force: minimal total with distinct columns = 2+4+6=12.
	if !almostEq(sol.Objective, 12, 1e-6) {
		t.Errorf("objective = %g, want 12", sol.Objective)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(2)
	if err := p.SetObjective([]float64{1, 2}, Minimize); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 2)
	q := p.Clone()
	if err := q.SetBounds(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	q.AddConstraint([]Term{{1, 1}}, GE, 5)

	solP := mustSolve(t, p)
	solQ := mustSolve(t, q)
	if !almostEq(solP.Objective, 2, 1e-6) {
		t.Errorf("parent objective = %g, want 2 (clone leaked)", solP.Objective)
	}
	if !almostEq(solQ.Objective, 10, 1e-6) {
		t.Errorf("clone objective = %g, want 10", solQ.Objective)
	}
}

func TestErrorPaths(t *testing.T) {
	p := New(2)
	if err := p.SetObjective([]float64{1}, Minimize); err == nil {
		t.Error("wrong-length objective accepted")
	}
	if err := p.SetBounds(0, 3, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if err := p.SetBounds(0, math.Inf(-1), 1); err == nil {
		t.Error("free variable accepted")
	}
	if _, err := p.AddConstraint([]Term{{9, 1}}, LE, 1); err == nil {
		t.Error("out-of-range constraint var accepted")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("op strings wrong")
	}
	if Op(99).String() != "?" {
		t.Error("unknown op string wrong")
	}
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit", Status(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// bruteForceBoxLP exhaustively evaluates the LP min c'x over the box
// [0,u]^n intersected with <= constraints, by checking all vertices of the
// box and, where the box optimum is infeasible, falling back to a dense grid.
// Only valid as a reference when the true optimum lies at a box vertex or
// grid point; we use problems designed so a fine grid gets within tolerance.
func gridOptimum(c []float64, rows [][]float64, rhs []float64, u float64, steps int) (float64, bool) {
	n := len(c)
	best := math.Inf(1)
	found := false
	var rec func(i int, x []float64)
	rec = func(i int, x []float64) {
		if i == n {
			for r := range rows {
				s := 0.0
				for j := range x {
					s += rows[r][j] * x[j]
				}
				if s > rhs[r]+1e-9 {
					return
				}
			}
			v := 0.0
			for j := range x {
				v += c[j] * x[j]
			}
			if v < best {
				best = v
				found = true
			}
			return
		}
		for k := 0; k <= steps; k++ {
			x[i] = u * float64(k) / float64(steps)
			rec(i+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best, found
}

// TestQuickAgainstGrid cross-checks the simplex optimum against a dense grid
// search on random small LPs: simplex must never be worse than any feasible
// grid point, and its solution must be feasible.
func TestQuickAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2)     // 2..3 vars
		mRows := 1 + r.Intn(3) // 1..3 constraints
		c := make([]float64, n)
		for j := range c {
			c[j] = math.Round((r.Float64()*4-2)*4) / 4 // in [-2,2], quarter steps
		}
		rows := make([][]float64, mRows)
		rhs := make([]float64, mRows)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = math.Round(r.Float64()*4) / 2 // in [0,2]
			}
			rhs[i] = math.Round(r.Float64()*8) / 2 // in [0,4]
		}
		p := New(n)
		if err := p.SetObjective(c, Minimize); err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			if err := p.SetBounds(j, 0, 2); err != nil {
				return false
			}
		}
		for i := range rows {
			terms := make([]Term, 0, n)
			for j, v := range rows[i] {
				if v != 0 {
					terms = append(terms, Term{j, v})
				}
			}
			p.AddConstraint(terms, LE, rhs[i])
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			// x=0 is always feasible here (all coefs >= 0, rhs >= 0), so the
			// LP can never be infeasible, and the box bound prevents
			// unboundedness.
			t.Logf("seed %d: unexpected status %v err %v", seed, sol.Status, err)
			return false
		}
		// Feasibility of the simplex solution.
		for i := range rows {
			s := 0.0
			for j := range sol.X {
				s += rows[i][j] * sol.X[j]
			}
			if s > rhs[i]+1e-6 {
				t.Logf("seed %d: solution violates row %d (%g > %g)", seed, i, s, rhs[i])
				return false
			}
		}
		for j, x := range sol.X {
			if x < -1e-9 || x > 2+1e-6 {
				t.Logf("seed %d: x[%d]=%g outside [0,2]", seed, j, x)
				return false
			}
		}
		gridBest, ok := gridOptimum(c, rows, rhs, 2, 8)
		if !ok {
			return true
		}
		if sol.Objective > gridBest+1e-6 {
			t.Logf("seed %d: simplex %.9f worse than grid %.9f", seed, sol.Objective, gridBest)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 120,
		Rand:     rng,
		Values:   nil,
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimplexAssignment50x5(b *testing.B) {
	// A WaterWise-shaped LP: 50 jobs x 5 regions.
	const M, N = 50, 5
	build := func() *Problem {
		p := New(M * N)
		obj := make([]float64, M*N)
		r := rand.New(rand.NewSource(1))
		for i := range obj {
			obj[i] = r.Float64()
			p.SetBounds(i, 0, 1)
		}
		p.SetObjective(obj, Minimize)
		for m := 0; m < M; m++ {
			terms := make([]Term, N)
			for n := 0; n < N; n++ {
				terms[n] = Term{m*N + n, 1}
			}
			p.AddConstraint(terms, EQ, 1)
		}
		for n := 0; n < N; n++ {
			terms := make([]Term, M)
			for m := 0; m < M; m++ {
				terms[m] = Term{m*N + n, 1}
			}
			p.AddConstraint(terms, LE, 12)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := build()
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}
