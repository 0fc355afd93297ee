package core

import (
	"math"
	"testing"

	"waterwise/internal/lp"
	"waterwise/internal/milp"
	"waterwise/internal/transport"
)

// oracleRound solves a round's cost table as the MILP of Eq. 8–10 —
// assignment rows, capacity rows, each +Inf pair fixed to 0 — by branch
// and bound with no limits.
func oracleRound(t *testing.T, cost []float64, caps []int) *milp.Solution {
	t.Helper()
	N := len(caps)
	M := len(cost) / N
	prob := milp.New(M * N)
	obj := make([]float64, M*N)
	for v, c := range cost {
		if err := prob.SetImpliedBinary(v); err != nil {
			t.Fatal(err)
		}
		if math.IsInf(c, 1) {
			if err := prob.SetBounds(v, 0, 0); err != nil {
				t.Fatal(err)
			}
			continue
		}
		obj[v] = c
	}
	for m := 0; m < M; m++ {
		terms := make([]lp.Term, N)
		for n := range terms {
			terms[n] = lp.Term{Var: m*N + n, Coef: 1}
		}
		if _, err := prob.AddConstraint(terms, lp.EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < N; n++ {
		terms := make([]lp.Term, M)
		for m := range terms {
			terms[m] = lp.Term{Var: m*N + n, Coef: 1}
		}
		if _, err := prob.AddConstraint(terms, lp.LE, float64(caps[n])); err != nil {
			t.Fatal(err)
		}
	}
	if err := prob.SetObjective(obj, lp.Minimize); err != nil {
		t.Fatal(err)
	}
	sol, err := prob.Solve(milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestRoundsMatchMILPOracle replays both WaterWise runs the pinned
// placements cover and checks every round solve, hard and soft, against
// the MILP: the same status, a feasible placement, and the same objective
// within 1e-9 relative.
func TestRoundsMatchMILPOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, c := range []struct {
		name string
		run  wholeRun
	}{{"5x400", largeRun}, {"5x35", paperRun}} {
		t.Run(c.name, func(t *testing.T) {
			s := c.run.waterwise(t)
			rounds, infeasible := 0, 0
			s.checkRound = func(cost []float64, caps []int, st transport.Status, assign []int) {
				rounds++
				N := len(caps)
				want := oracleRound(t, cost, caps)
				switch {
				case want.Status == milp.Infeasible && st == transport.Infeasible:
					infeasible++
					return
				case want.Status != milp.Optimal || st != transport.Optimal:
					t.Fatalf("round %d (%d jobs): transport %v, MILP %v", rounds, len(assign), st, want.Status)
				}
				load := make([]int, N)
				got := 0.0
				for m, n := range assign {
					if math.IsInf(cost[m*N+n], 1) {
						t.Fatalf("round %d: job %d placed on a forbidden pair", rounds, m)
					}
					load[n]++
					got += cost[m*N+n]
				}
				for n := range caps {
					if load[n] > caps[n] {
						t.Fatalf("round %d: region %d holds %d jobs, capacity %d", rounds, n, load[n], caps[n])
					}
				}
				if math.Abs(got-want.Objective) > 1e-9*max(1, math.Abs(want.Objective)) {
					t.Fatalf("round %d (%d jobs): transport objective %.12g, MILP %.12g", rounds, len(assign), got, want.Objective)
				}
			}
			c.run.run(t, s)
			if rounds == 0 {
				t.Fatal("no round was solved")
			}
			t.Logf("%d round solves matched the MILP, %d of them infeasible", rounds, infeasible)
		})
	}
}
