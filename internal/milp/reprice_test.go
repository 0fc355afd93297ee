package milp

import (
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
