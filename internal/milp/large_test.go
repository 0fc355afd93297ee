package milp

import (
	"math"
	"math/rand"
	"testing"

	"waterwise/internal/lp"
)

// installRound rewrites the model for one scheduling round: fresh objective,
// per-region capacity RHS, and a churning minority of forbidden pairs — the
// exact per-round mutation internal/core performs on its cached skeleton.
func installRound(tb testing.TB, prob *Problem, capRows []int, M, N int, r *rand.Rand, obj []float64) {
	tb.Helper()
	if err := resetVarBounds(prob); err != nil {
		tb.Fatal(err)
	}
	for v := range obj {
		obj[v] += (r.Float64() - 0.5) * 0.05
		if obj[v] < 0 {
			obj[v] = 0
		}
	}
	for m := 0; m < M; m++ {
		open := 0
		for n := 0; n < N; n++ {
			v := m*N + n
			if r.Intn(50) == 0 {
				if err := prob.SetBounds(v, 0, 0); err != nil {
					tb.Fatal(err)
				}
			} else {
				open++
			}
		}
		if open == 0 {
			if err := prob.SetBounds(m*N+r.Intn(N), 0, math.Inf(1)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := prob.SetObjective(obj, lp.Minimize); err != nil {
		tb.Fatal(err)
	}
	// Σ caps = 1.2·M, evenly spread: capacity binds without starving jobs.
	for n := 0; n < N; n++ {
		if err := prob.SetRHS(capRows[n], math.Ceil(1.2*float64(M)/float64(N))); err != nil {
			tb.Fatal(err)
		}
	}
}

// resetVarBounds clears every variable's bounds to [0, +Inf): the previous
// round's pair-forbidding fixes, before a reused model takes the next
// round's.
func resetVarBounds(prob *Problem) error {
	for v := 0; v < prob.NumVars(); v++ {
		if err := prob.SetBounds(v, 0, math.Inf(1)); err != nil {
			return err
		}
	}
	return nil
}

func freshObjective(r *rand.Rand, M, N int) []float64 {
	obj := make([]float64, M*N)
	for v := range obj {
		obj[v] = 0.2 + r.Float64()
	}
	return obj
}

// BenchmarkSchedulingRound1000x10 is the headline gate of the sparse revised
// simplex rewrite: one full scheduling-round MILP solve at a 1000-job x
// 10-region batch, mutated between iterations the way the scheduler's cached
// round model is (objective drift, capacity RHS rewrite, forbidden-pair
// churn), solved cold each round.
func BenchmarkSchedulingRound1000x10(b *testing.B) {
	const M, N = 1000, 10
	prob, capRows := buildRoundModel(b, M, N)
	r := rand.New(rand.NewSource(1))
	obj := freshObjective(r, M, N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		installRound(b, prob, capRows, M, N, r, obj)
		b.StartTimer()
		sol, err := prob.Solve(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// TestLargeBatchBranching runs the serial tree on a 1000-job round-shaped
// MILP hardened with knapsack rows that break the assignment polytope's
// integrality, so branch and bound really branches: the search must still
// prove the known optimum.
func TestLargeBatchBranching(t *testing.T) {
	if testing.Short() {
		t.Skip("large-batch branching test skipped in -short mode")
	}
	const M, N = 1000, 10
	prob, capRows := buildRoundModel(t, M, N)
	r := rand.New(rand.NewSource(7))
	obj := freshObjective(r, M, N)
	installRound(t, prob, capRows, M, N, r, obj)
	// Groups of three jobs share a cheap favorite region, but a knapsack
	// row only admits 1.4 favorites in total — the LP splits fractionally
	// and integrality forces branching. Favorite costs are small but
	// distinct, so best-bound pruning closes the tree fast.
	group := 0
	for m := 0; m+2 < M; m += 199 {
		fav := group % N
		group++
		terms := make([]lp.Term, 0, 3)
		for k := 0; k < 3; k++ {
			v := (m+k)*N + fav
			obj[v] = 0.02 * float64(k+1)
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		if _, err := prob.AddConstraint(terms, lp.LE, 1.4); err != nil {
			t.Fatal(err)
		}
	}
	if err := prob.SetObjective(obj, lp.Minimize); err != nil {
		t.Fatal(err)
	}
	// Generous capacities: fixing a group variable must not ripple
	// fractionality through binding capacity rows
	// (TestLargeRoundSolvesInBudget keeps the binding-capacity shape).
	for n := 0; n < N; n++ {
		if err := prob.SetRHS(capRows[n], float64(M)); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := prob.Solve(Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.Nodes < 2 {
		t.Fatalf("%d nodes: the knapsack rows no longer force branching", sol.Stats.Nodes)
	}
	const want = 287.066742
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective %.9f, want %.6f", sol.Objective, want)
	}
	t.Logf("%d nodes, %d simplex iterations, objective %.6f", sol.Stats.Nodes, sol.Stats.SimplexIters, sol.Objective)
}

// TestLargeRoundSolvesInBudget keeps thousand-job rounds inside the online
// service's per-round budget on every PR (the CI large-batch smoke job).
func TestLargeRoundSolvesInBudget(t *testing.T) {
	const M, N = 1000, 10
	prob, capRows := buildRoundModel(t, M, N)
	r := rand.New(rand.NewSource(3))
	obj := freshObjective(r, M, N)
	for round := 0; round < 3; round++ {
		installRound(t, prob, capRows, M, N, r, obj)
		sol, err := prob.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("round %d: status %v", round, sol.Status)
		}
		if sol.Stats.Nodes != 1 {
			t.Errorf("round %d: %d nodes — the assignment relaxation is integral, the root LP must close it", round, sol.Stats.Nodes)
		}
	}
}
