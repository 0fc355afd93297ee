package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"waterwise/internal/lp"
)

// installRoundVariant installs installRound's round on prob, then reshapes
// it by variant: the capacity regime (Σ caps below, equal to, or above M),
// heavy pair forbidding (up to all regions but one per job), exactly tied
// costs, and soft-mode penalty costs (σ·excess added to some pairs, as
// core folds Eq. 12–13 into the objective). Equal seeds install equal
// rounds, so a cold and a chained problem can be given the same one. It
// returns the objective and the capacities it installed.
func installRoundVariant(tb testing.TB, prob *Problem, capRows []int, M, N int, seed int64, variant int) (obj []float64, caps []int) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	obj = freshObjective(r, M, N)
	installRound(tb, prob, capRows, M, N, r, obj)

	capRegime, forbidHeavy, tied, soft := variant%3, variant/3%2 == 1, variant/6%2 == 1, variant/12%2 == 1
	if forbidHeavy && !soft {
		for m := 0; m < M; m++ {
			keep := r.Intn(N)
			forbid := r.Intn(N) // 0 .. N-1 of the other regions
			for _, n := range r.Perm(N) {
				if n != keep && forbid > 0 {
					forbid--
					if err := prob.SetBounds(m*N+n, 0, 0); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
	}
	if tied {
		for v := range obj {
			obj[v] = 0.25 * float64(r.Intn(3))
		}
	}
	if soft {
		const sigma = 10 // core's default PenaltySigma
		for v := range obj {
			if r.Intn(3) == 0 {
				obj[v] += sigma * r.Float64()
			}
		}
	}
	if err := prob.SetObjective(obj, lp.Minimize); err != nil {
		tb.Fatal(err)
	}
	total := M + []int{-1 - r.Intn(M), 0, 1 + r.Intn(M)}[capRegime]
	caps = make([]int, N)
	for k := 0; k < total; k++ {
		caps[r.Intn(N)]++
	}
	for n := 0; n < N; n++ {
		if err := prob.SetRHS(capRows[n], float64(caps[n])); err != nil {
			tb.Fatal(err)
		}
	}
	return obj, caps
}

// TestRoundModelsCloseAtRoot is the premise the serial solver rests on: the
// scheduler's round MILP (assignment rows, capacity rows, forbidden pairs
// fixed to 0) has an integral relaxation, so every solve closes at the
// root. Seeded rounds cover batch sizes from 1 to 1000 jobs over 2, 5 and
// 10 regions, capacity below, equal to and above the batch, heavy
// forbidding, tied costs and soft-mode penalties, each solved cold and
// chained with RepriceWarmStart the way core reuses one model.
func TestRoundModelsCloseAtRoot(t *testing.T) {
	rounds, optimal, warm := 0, 0, 0
	for _, M := range []int{1, 2, 3, 15, 64, 300, 1000} {
		for _, N := range []int{2, 5, 10} {
			// 24 variants cover every combination; the largest shapes
			// run every other one.
			perShape, step := 24, 1
			if M*N > 1000 {
				perShape, step = 12, 2
			}
			chained, chainedCaps := buildRoundModel(t, M, N)
			cold, coldCaps := buildRoundModel(t, M, N)
			for k := 0; k < perShape; k++ {
				seed := int64(M*1000+N)*100 + int64(k)
				installRoundVariant(t, chained, chainedCaps, M, N, seed, k*step)
				installRoundVariant(t, cold, coldCaps, M, N, seed, k*step)
				name := fmt.Sprintf("M=%d N=%d round %d", M, N, k)
				want, err := cold.Solve(Options{})
				if err != nil {
					t.Fatalf("%s: cold: %v", name, err)
				}
				got, err := chained.Solve(Options{RepriceWarmStart: true})
				if err != nil {
					t.Fatalf("%s: chained: %v", name, err)
				}
				for _, sol := range []*Solution{want, got} {
					checkClosedAtRoot(t, name, sol)
				}
				warm += got.Stats.WarmStarts
				if got.Status != want.Status {
					t.Fatalf("%s: chained status %v, cold %v", name, got.Status, want.Status)
				}
				if want.Status == Optimal {
					optimal++
					if math.Abs(got.Objective-want.Objective) > 1e-6 {
						t.Errorf("%s: chained objective %.9f, cold %.9f", name, got.Objective, want.Objective)
					}
				}
				rounds++
			}
		}
	}
	if rounds < 300 || optimal < rounds/2 || warm == 0 {
		t.Fatalf("%d rounds, %d optimal, %d warm: the corpus is too thin to back the premise", rounds, optimal, warm)
	}
	t.Logf("%d rounds, %d optimal, %d chained solves warm started, all closed at the root", rounds, optimal, warm)
}

// checkClosedAtRoot fails unless sol was decided by the root relaxation
// alone: one node, an optimal or infeasible verdict, and an integral X.
func checkClosedAtRoot(t *testing.T, name string, sol *Solution) {
	t.Helper()
	if sol.Stats.Nodes != 1 {
		t.Fatalf("%s: %d nodes (status %v), want the root to close the round", name, sol.Stats.Nodes, sol.Status)
	}
	switch sol.Status {
	case Infeasible:
		return
	case Optimal:
	default:
		t.Fatalf("%s: status %v", name, sol.Status)
	}
	for v, x := range sol.X {
		if math.Abs(x-math.Round(x)) > intTol {
			t.Fatalf("%s: x[%d] = %g is fractional", name, v, x)
		}
	}
}
