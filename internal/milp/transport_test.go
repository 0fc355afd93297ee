package milp

import (
	"fmt"
	"math"
	"testing"

	"waterwise/internal/transport"
)

// TestTransportMatchesRootCorpus solves every round of
// TestRoundModelsCloseAtRoot's seeded corpus — 1 to 1000 jobs over 2, 5
// and 10 regions, every capacity regime, heavy forbidding, exact ties and
// soft-mode penalties — both by branch and bound and as a transportation
// problem (a pair fixed to 0 becomes a +Inf cost). The statuses must agree,
// the transportation placement must be feasible, and its objective must
// match the MILP's within 1e-9 relative.
func TestTransportMatchesRootCorpus(t *testing.T) {
	var tp transport.Solver
	rounds, optimal := 0, 0
	for _, M := range []int{1, 2, 3, 15, 64, 300, 1000} {
		for _, N := range []int{2, 5, 10} {
			perShape, step := 24, 1
			if M*N > 1000 {
				perShape, step = 12, 2
			}
			prob, capRows := buildRoundModel(t, M, N)
			for k := 0; k < perShape; k++ {
				seed := int64(M*1000+N)*100 + int64(k)
				obj, caps := installRoundVariant(t, prob, capRows, M, N, seed, k*step)
				name := fmt.Sprintf("M=%d N=%d round %d", M, N, k)
				cost := make([]float64, M*N)
				for v := range cost {
					cost[v] = obj[v]
					if prob.hi[v] == 0 {
						cost[v] = math.Inf(1)
					}
				}
				want, err := prob.Solve(Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assign := make([]int, M)
				st, err := tp.Solve(cost, caps, assign)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rounds++
				if (want.Status == Optimal) != (st == transport.Optimal) || (want.Status != Optimal && want.Status != Infeasible) {
					t.Fatalf("%s: transport %v, MILP %v", name, st, want.Status)
				}
				if st != transport.Optimal {
					continue
				}
				optimal++
				load := make([]int, N)
				got := 0.0
				for m, n := range assign {
					if math.IsInf(cost[m*N+n], 1) {
						t.Fatalf("%s: job %d placed on a forbidden pair", name, m)
					}
					load[n]++
					got += cost[m*N+n]
				}
				for n := range caps {
					if load[n] > caps[n] {
						t.Fatalf("%s: region %d holds %d jobs, capacity %d", name, n, load[n], caps[n])
					}
				}
				if math.Abs(got-want.Objective) > 1e-9*max(1, math.Abs(want.Objective)) {
					t.Errorf("%s: transport objective %.12g, MILP %.12g", name, got, want.Objective)
				}
			}
		}
	}
	if optimal < rounds/2 {
		t.Fatalf("%d rounds, %d optimal: the corpus is too thin", rounds, optimal)
	}
	t.Logf("%d rounds, %d optimal, all matched", rounds, optimal)
}
