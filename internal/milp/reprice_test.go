package milp

import (
	"math"
	"math/rand"
	"testing"

	"waterwise/internal/lp"
)

// buildRoundModel constructs the scheduler's round-model shape: M*N implied
// binaries, M assignment EQ rows, N capacity LE rows. Returns the problem and
// the capacity row indices.
func buildRoundModel(t testing.TB, M, N int) (*Problem, []int) {
	t.Helper()
	p := New(M * N)
	for v := 0; v < M*N; v++ {
		if err := p.SetImpliedBinary(v); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < M; m++ {
		terms := make([]lp.Term, N)
		for n := 0; n < N; n++ {
			terms[n] = lp.Term{Var: m*N + n, Coef: 1}
		}
		if _, err := p.AddConstraint(terms, lp.EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	capRows := make([]int, N)
	for n := 0; n < N; n++ {
		terms := make([]lp.Term, M)
		for m := 0; m < M; m++ {
			terms[m] = lp.Term{Var: m*N + n, Coef: 1}
		}
		row, err := p.AddConstraint(terms, lp.LE, float64(M))
		if err != nil {
			t.Fatal(err)
		}
		capRows[n] = row
	}
	return p, capRows
}

// TestRepriceWarmStartDifferential reuses one MILP across a round sequence —
// rewriting the objective, capacity RHS, and pair-forbidding bounds each
// round — and solves it twice per round: on a reused problem with
// RepriceWarmStart and on a fresh cold problem. Statuses and objectives must
// agree on every round, and the warm path must actually serve rounds from
// the revived basis.
func TestRepriceWarmStartDifferential(t *testing.T) {
	const M, N, rounds = 12, 4, 30
	r := rand.New(rand.NewSource(99))
	warmProb, capRows := buildRoundModel(t, M, N)

	obj := make([]float64, M*N)
	for v := range obj {
		obj[v] = 0.2 + r.Float64()
	}
	totalWarm := 0
	for round := 0; round < rounds; round++ {
		for v := range obj {
			obj[v] += (r.Float64() - 0.5) * 0.1
			if obj[v] < 0 {
				obj[v] = 0
			}
		}
		caps := make([]float64, N)
		for n := range caps {
			caps[n] = float64(M/2 + r.Intn(3))
		}
		forbidden := make([]bool, M*N)
		for m := 0; m < M; m++ {
			open := 0
			for n := 0; n < N; n++ {
				forbidden[m*N+n] = r.Intn(25) == 0
				if !forbidden[m*N+n] {
					open++
				}
			}
			if open == 0 {
				forbidden[m*N+r.Intn(N)] = false
			}
		}

		coldProb, coldCaps := buildRoundModel(t, M, N)
		for i, p := range []*Problem{warmProb, coldProb} {
			rows := capRows
			if i == 1 {
				rows = coldCaps
			}
			if err := resetVarBounds(p); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < M*N; v++ {
				if forbidden[v] {
					if err := p.SetBounds(v, 0, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := p.SetObjective(append([]float64(nil), obj...), lp.Minimize); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < N; n++ {
				if err := p.SetRHS(rows[n], caps[n]); err != nil {
					t.Fatal(err)
				}
			}
		}

		got, err := warmProb.Solve(Options{MaxNodes: 1000, RepriceWarmStart: true})
		if err != nil {
			t.Fatalf("round %d: warm Solve: %v", round, err)
		}
		want, err := coldProb.Solve(Options{MaxNodes: 1000})
		if err != nil {
			t.Fatalf("round %d: cold Solve: %v", round, err)
		}
		if got.Status != want.Status {
			t.Fatalf("round %d: status %v, cold %v", round, got.Status, want.Status)
		}
		if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Errorf("round %d: objective %.9f, cold %.9f", round, got.Objective, want.Objective)
		}
		totalWarm += got.Stats.WarmStarts
	}
	if totalWarm == 0 {
		t.Error("RepriceWarmStart never served a round from the revived basis")
	}
	t.Logf("warm-started LP solves across %d rounds: %d", rounds, totalWarm)
}
