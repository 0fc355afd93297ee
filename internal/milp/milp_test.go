package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/lp"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBinaryKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binaries.
	// Enumerate: a+c = 17 (w=5), b+c = 20 (w=6) <- best, a+b w=7 infeasible.
	p := New(3)
	if err := p.SetObjective([]float64{10, 13, 7}, lp.Maximize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.SetBinary(i); err != nil {
			t.Fatal(err)
		}
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 3}, {Var: 1, Coef: 4}, {Var: 2, Coef: 2}}, lp.LE, 6)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 20, 1e-6) {
		t.Errorf("objective = %g, want 20", sol.Objective)
	}
	want := []float64{0, 1, 1}
	for i, x := range sol.X {
		if !almostEq(x, want[i], 1e-6) {
			t.Errorf("x[%d] = %g, want %g", i, x, want[i])
		}
	}
}

func TestAssignmentWithCapacity(t *testing.T) {
	// 4 jobs, 2 regions, region capacities 2 and 3; WaterWise-shaped.
	costs := [][]float64{{5, 9}, {1, 8}, {7, 2}, {6, 3}}
	const M, N = 4, 2
	p := New(M * N)
	obj := make([]float64, M*N)
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			obj[m*N+n] = costs[m][n]
			if err := p.SetBinary(m*N + n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.SetObjective(obj, lp.Minimize); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < M; m++ {
		p.AddConstraint([]lp.Term{{Var: m * N, Coef: 1}, {Var: m*N + 1, Coef: 1}}, lp.EQ, 1)
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 2, Coef: 1}, {Var: 4, Coef: 1}, {Var: 6, Coef: 1}}, lp.LE, 2)
	p.AddConstraint([]lp.Term{{Var: 1, Coef: 1}, {Var: 3, Coef: 1}, {Var: 5, Coef: 1}, {Var: 7, Coef: 1}}, lp.LE, 3)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// Best: j0->r0(5), j1->r0(1), j2->r1(2), j3->r1(3) = 11.
	if !almostEq(sol.Objective, 11, 1e-6) {
		t.Errorf("objective = %g, want 11", sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := New(2)
	for i := 0; i < 2; i++ {
		if err := p.SetBinary(i); err != nil {
			t.Fatal(err)
		}
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.GE, 3)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestFractionalInfeasibleIntegerFeasibleGap(t *testing.T) {
	// LP relaxation is feasible at x=1.5 but integers in [0,3] must satisfy
	// 2x == 3 -> infeasible.
	p := New(1)
	if err := p.SetInteger(0); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}}, lp.EQ, 3)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestGeneralInteger(t *testing.T) {
	// max x + y s.t. 2x + 3y <= 12, x,y integer in [0,5].
	// Candidates: (5,0)->5 (w=10 ok); (4,1)->5 (11 ok); (3,2)->5 (12 ok); 6? (5,0) is 5.
	// (3,2)=5, can we reach 6? x+y=6 requires w >= 2*6-y... (0,4): w=12, sum 4.
	// Max is x=5,y=0 -> 5? Check (4,1): 8+3=11 fine sum 5. (5,0) w=10 sum 5. 6 impossible:
	// need 2x+3y<=12 with x+y=6 -> 2(6-y)+3y=12+y<=12 -> y<=0 -> (6,0) but x<=5. So 5.
	p := New(2)
	if err := p.SetObjective([]float64{1, 1}, lp.Maximize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.SetInteger(i); err != nil {
			t.Fatal(err)
		}
		if err := p.SetBounds(i, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 3}}, lp.LE, 12)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal obj=5", sol.Status, sol.Objective)
	}
	for i, x := range sol.X {
		if !almostEq(x, math.Round(x), 1e-6) {
			t.Errorf("x[%d] = %g not integral", i, x)
		}
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 3b + y s.t. y >= 2 - 5b, y >= 0, b binary.
	// b=0: y=2 -> 2. b=1: y=0 -> 3. Optimal 2.
	p := New(2)
	if err := p.SetObjective([]float64{3, 1}, lp.Minimize); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBinary(0); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 5}, {Var: 1, Coef: 1}}, lp.GE, 2)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 2, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal obj=2", sol.Status, sol.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem whose root relaxation is fractional, with MaxNodes=1 so no
	// branching can happen -> Limit with no incumbent.
	p := New(3)
	if err := p.SetObjective([]float64{-1, -1, -1}, lp.Minimize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.SetBinary(i); err != nil {
			t.Fatal(err)
		}
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 2}, {Var: 2, Coef: 2}}, lp.LE, 3)
	sol, err := p.Solve(Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Limit && sol.Status != Feasible {
		t.Fatalf("status = %v, want limit or feasible", sol.Status)
	}
}

func TestTimeLimitRespected(t *testing.T) {
	p := randomAssignment(rand.New(rand.NewSource(3)), 10, 4)
	start := time.Now()
	sol, err := p.Solve(Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("solve took %v despite 1ms limit", elapsed)
	}
	_ = sol
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "limit", Status(42): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

// randomAssignment builds an M-jobs x N-regions assignment MILP with random
// costs and loose capacities.
func randomAssignment(r *rand.Rand, M, N int) *Problem {
	p := New(M * N)
	obj := make([]float64, M*N)
	for i := range obj {
		obj[i] = math.Round(r.Float64()*100) / 10
		p.SetBinary(i)
	}
	p.SetObjective(obj, lp.Minimize)
	for m := 0; m < M; m++ {
		terms := make([]lp.Term, N)
		for n := 0; n < N; n++ {
			terms[n] = lp.Term{Var: m*N + n, Coef: 1}
		}
		p.AddConstraint(terms, lp.EQ, 1)
	}
	cap := (M + N - 1) / N
	for n := 0; n < N; n++ {
		terms := make([]lp.Term, M)
		for m := 0; m < M; m++ {
			terms[m] = lp.Term{Var: m*N + n, Coef: 1}
		}
		p.AddConstraint(terms, lp.LE, float64(cap))
	}
	return p
}

// bruteAssignment exhaustively finds the optimal assignment cost.
func bruteAssignment(costs [][]float64, capacity int) float64 {
	M, N := len(costs), len(costs[0])
	used := make([]int, N)
	best := math.Inf(1)
	var rec func(m int, acc float64)
	rec = func(m int, acc float64) {
		if acc >= best {
			return
		}
		if m == M {
			best = acc
			return
		}
		for n := 0; n < N; n++ {
			if used[n] < capacity {
				used[n]++
				rec(m+1, acc+costs[m][n])
				used[n]--
			}
		}
	}
	rec(0, 0)
	return best
}

// TestQuickAssignmentMatchesBruteForce: for random small assignment MILPs,
// branch-and-bound must match exhaustive enumeration exactly.
func TestQuickAssignmentMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		M := 2 + r.Intn(4) // 2..5 jobs
		N := 2 + r.Intn(2) // 2..3 regions
		costs := make([][]float64, M)
		for m := range costs {
			costs[m] = make([]float64, N)
			for n := range costs[m] {
				costs[m][n] = math.Round(r.Float64()*100) / 10
			}
		}
		capacity := (M + N - 1) / N
		p := New(M * N)
		obj := make([]float64, M*N)
		for m := 0; m < M; m++ {
			for n := 0; n < N; n++ {
				obj[m*N+n] = costs[m][n]
				if err := p.SetBinary(m*N + n); err != nil {
					return false
				}
			}
		}
		if err := p.SetObjective(obj, lp.Minimize); err != nil {
			return false
		}
		for m := 0; m < M; m++ {
			terms := make([]lp.Term, N)
			for n := 0; n < N; n++ {
				terms[n] = lp.Term{Var: m*N + n, Coef: 1}
			}
			p.AddConstraint(terms, lp.EQ, 1)
		}
		for n := 0; n < N; n++ {
			terms := make([]lp.Term, M)
			for m := 0; m < M; m++ {
				terms[m] = lp.Term{Var: m*N + n, Coef: 1}
			}
			p.AddConstraint(terms, lp.LE, float64(capacity))
		}
		sol, err := p.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			t.Logf("seed %d: status %v err %v", seed, sol.Status, err)
			return false
		}
		want := bruteAssignment(costs, capacity)
		if !almostEq(sol.Objective, want, 1e-6) {
			t.Logf("seed %d: milp %.9f, brute force %.9f", seed, sol.Objective, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// TestQuickKnapsackMatchesBruteForce: random binary knapsacks vs enumeration.
func TestQuickKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6) // 3..8 items
		vals := make([]float64, n)
		wts := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(r.Float64()*50) / 5
			wts[i] = math.Round(r.Float64()*50)/5 + 0.2
		}
		budget := 0.0
		for _, w := range wts {
			budget += w
		}
		budget *= 0.4
		p := New(n)
		if err := p.SetObjective(vals, lp.Maximize); err != nil {
			return false
		}
		terms := make([]lp.Term, n)
		for i := range terms {
			p.SetBinary(i)
			terms[i] = lp.Term{Var: i, Coef: wts[i]}
		}
		p.AddConstraint(terms, lp.LE, budget)
		sol, err := p.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			t.Logf("seed %d: status %v err %v", seed, sol.Status, err)
			return false
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += wts[i]
					v += vals[i]
				}
			}
			if w <= budget+1e-9 && v > best {
				best = v
			}
		}
		if !almostEq(sol.Objective, best, 1e-6) {
			t.Logf("seed %d: milp %.9f, brute force %.9f", seed, sol.Objective, best)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMILPAssignment30x5(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := randomAssignment(r, 30, 5)
		sol, err := p.Solve(Options{})
		if err != nil || (sol.Status != Optimal && sol.Status != Feasible) {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// SetBinary marks variable i as binary (integer in {0,1}).
func (p *Problem) SetBinary(i int) error {
	if err := p.SetBounds(i, 0, 1); err != nil {
		return err
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
