package milp

import (
	"math"
	"math/rand"
	"testing"

	"waterwise/internal/lp"
)

// oracleSolve is an independently coded branch-and-bound over the retained
// previous-generation LP solver (lp.SolveReference): plain depth-first
// recursion, no warm starts, most-fractional branching. It is the ground
// truth for the differential corpus.
func oracleSolve(t *testing.T, p *Problem) (Status, float64) {
	t.Helper()
	prob := p.base.Clone()
	sgn := 1.0
	if p.sense == lp.Maximize {
		sgn = -1.0
	}
	best := math.Inf(1)
	feasible := false
	unbounded := false

	var rec func(depth int)
	rec = func(depth int) {
		if depth > 64 {
			t.Fatal("oracle recursion too deep")
		}
		sol, err := lp.SolveReference(prob)
		if err != nil {
			t.Fatalf("oracle LP: %v", err)
		}
		switch sol.Status {
		case lp.Unbounded:
			if depth == 0 {
				unbounded = true
			}
			return
		case lp.Optimal:
		default:
			return // infeasible or stuck subtree
		}
		obj := sgn * sol.Objective
		if obj >= best-1e-9 {
			return
		}
		// Most fractional integer variable, lowest index on ties.
		v, bestDist := -1, -1.0
		for i, isI := range p.isInt {
			if !isI {
				continue
			}
			f := sol.X[i] - math.Floor(sol.X[i])
			d := math.Min(f, 1-f)
			if d > 1e-6 && d > bestDist {
				bestDist = d
				v = i
			}
		}
		if v == -1 {
			best = obj
			feasible = true
			return
		}
		lo, hi := prob.Bounds(v)
		f := math.Floor(sol.X[v])
		if f >= lo {
			prob.SetBounds(v, lo, f)
			rec(depth + 1)
		}
		if f+1 <= hi {
			prob.SetBounds(v, f+1, hi)
			rec(depth + 1)
		}
		prob.SetBounds(v, lo, hi)
	}
	rec(0)
	switch {
	case unbounded:
		return Unbounded, 0
	case !feasible:
		return Infeasible, 0
	}
	return Optimal, sgn * best
}

// randomMixedMILP builds a small MILP mixing bounded general integers,
// binaries, and bounded continuous variables over random LE/GE/EQ rows.
func randomMixedMILP(r *rand.Rand) *Problem {
	n := 2 + r.Intn(4) // 2..5 vars
	p := New(n)
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = math.Round((r.Float64()*4-2)*4) / 4
	}
	sense := lp.Minimize
	if r.Intn(2) == 1 {
		sense = lp.Maximize
	}
	p.SetObjective(obj, sense)
	for j := 0; j < n; j++ {
		switch r.Intn(3) {
		case 0:
			p.SetBinary(j)
		case 1:
			p.SetInteger(j)
			p.SetBounds(j, 0, float64(1+r.Intn(4)))
		default:
			p.SetBounds(j, 0, math.Round(r.Float64()*16)/4)
		}
	}
	rows := 1 + r.Intn(3)
	for i := 0; i < rows; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			coef := math.Round((r.Float64()*4-2)*4) / 4
			if coef == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: j, Coef: coef})
		}
		if len(terms) == 0 {
			terms = []lp.Term{{Var: r.Intn(n), Coef: 1}}
		}
		op := []lp.Op{lp.LE, lp.GE, lp.EQ}[r.Intn(3)]
		rhs := math.Round((r.Float64()*8 - 2))
		p.AddConstraint(terms, op, rhs)
	}
	return p
}

// differentialCorpus builds the ~200-problem corpus the acceptance criteria
// call for: assignment MILPs (the WaterWise shape), knapsacks, and mixed
// integer/continuous problems.
func differentialCorpus(r *rand.Rand) []*Problem {
	var corpus []*Problem
	for k := 0; k < 80; k++ {
		M := 2 + r.Intn(5)
		N := 2 + r.Intn(2)
		corpus = append(corpus, randomAssignment(r, M, N))
	}
	for k := 0; k < 60; k++ {
		n := 3 + r.Intn(6)
		vals := make([]float64, n)
		terms := make([]lp.Term, n)
		budget := 0.0
		p := New(n)
		for i := range vals {
			vals[i] = math.Round(r.Float64()*50) / 5
			w := math.Round(r.Float64()*50)/5 + 0.2
			terms[i] = lp.Term{Var: i, Coef: w}
			budget += w
			p.SetBinary(i)
		}
		p.SetObjective(vals, lp.Maximize)
		p.AddConstraint(terms, lp.LE, budget*0.4)
		corpus = append(corpus, p)
	}
	for k := 0; k < 60; k++ {
		corpus = append(corpus, randomMixedMILP(r))
	}
	return corpus
}

// TestDifferentialVsOracle cross-checks the warm-started solver against the
// oracle on the full corpus: statuses agree and objectives match to 1e-6.
func TestDifferentialVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20260701))
	corpus := differentialCorpus(r)
	var agg Stats
	for k, p := range corpus {
		wantStatus, wantObj := oracleSolve(t, p)
		got, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("case %d: Solve: %v", k, err)
		}
		agg.Add(got.Stats)
		if got.Status != wantStatus {
			t.Errorf("case %d: status %v, oracle %v", k, got.Status, wantStatus)
			continue
		}
		if wantStatus == Optimal && math.Abs(got.Objective-wantObj) > 1e-6 {
			t.Errorf("case %d: objective %.9f, oracle %.9f", k, got.Objective, wantObj)
		}
	}
	if agg.WarmStarts == 0 {
		t.Error("corpus never exercised the warm-start path")
	}
	t.Logf("corpus=%d nodes=%d iters=%d warm=%d cold=%d hit=%.2f",
		len(corpus), agg.Nodes, agg.SimplexIters, agg.WarmStarts, agg.ColdStarts,
		agg.WarmStartHitRate())
}

// TestAblationsMatch checks node warm starts are a pure acceleration:
// disabling them never changes the answer.
func TestAblationsMatch(t *testing.T) {
	r := rand.New(rand.NewSource(20260703))
	corpus := differentialCorpus(r)[:80]
	for k, p := range corpus {
		full, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		noWarm, err := p.Solve(Options{disableWarmStart: true})
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		if full.Status != noWarm.Status {
			t.Errorf("case %d: statuses diverge: full=%v noWarm=%v", k, full.Status, noWarm.Status)
			continue
		}
		if full.Status != Optimal {
			continue
		}
		if math.Abs(full.Objective-noWarm.Objective) > 1e-9 {
			t.Errorf("case %d: warm-start changed objective: %.12f vs %.12f",
				k, full.Objective, noWarm.Objective)
		}
		if noWarm.Stats.WarmStarts != 0 {
			t.Errorf("case %d: disableWarmStart still warm started", k)
		}
	}
}
