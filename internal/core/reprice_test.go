package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/milp"
	"waterwise/internal/trace"
)

// mirrorSched feeds every scheduling round to two WaterWise controllers —
// one with the cross-round re-pricing warm start, one solving cold — and
// compares their round MILP objectives. The cold controller's decisions are
// the ones applied, so both controllers see an identical round sequence and
// any objective divergence is the warm start's fault.
type mirrorSched struct {
	t          *testing.T
	warm, cold *Scheduler
	compared   int
}

func (m *mirrorSched) Name() string { return "mirror" }

func (m *mirrorSched) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	warmBefore, coldBefore := m.warm.SolverStats(), m.cold.SolverStats()
	warmDec, err := m.warm.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	warmObj, warmOK := m.warm.LastRoundObjective(ctx, warmDec, warmBefore)
	coldDec, err := m.cold.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	coldObj, coldOK := m.cold.LastRoundObjective(ctx, coldDec, coldBefore)
	if warmOK != coldOK {
		m.t.Errorf("round %v: warm solved=%v, cold solved=%v", ctx.Now, warmOK, coldOK)
	}
	if warmOK && coldOK {
		m.compared++
		if math.Abs(warmObj-coldObj) > 1e-6 {
			m.t.Errorf("round %v: warm objective %.9f, cold objective %.9f", ctx.Now, warmObj, coldObj)
		}
	}
	if len(warmDec) != len(coldDec) {
		m.t.Errorf("round %v: warm decided %d jobs, cold %d", ctx.Now, len(warmDec), len(coldDec))
	}
	return coldDec, nil
}

// TestCrossRoundWarmStartDifferential is the acceptance differential for the
// cross-round warm start: on identical round sequences the repricing
// controller must (a) match the cold controller's MILP objective on every
// round and (b) spend fewer total simplex iterations, with a substantial
// fraction of rounds served from the revived basis.
func TestCrossRoundWarmStartDifferential(t *testing.T) {
	env := testEnv(t)
	jobs, err := trace.GenerateBorgLike(trace.Config{
		Start: testStart, Duration: 24 * time.Hour, JobsPerDay: 9000,
		Regions: env.IDs(), DurationScale: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	warmCfg := DefaultConfig()
	warmCfg.Solver.RepriceWarmStart = true
	warm, err := New(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := &mirrorSched{t: t, warm: warm, cold: cold}
	if _, err := cluster.Run(cluster.Config{Env: env, Tolerance: 0.5, Tick: 30 * time.Second}, m, jobs); err != nil {
		t.Fatal(err)
	}
	if m.compared == 0 {
		t.Fatal("no round was compared")
	}

	ws, cs := warm.SolverStats(), cold.SolverStats()
	if ws.WarmStarts < m.compared/2 {
		t.Errorf("only %d of %d rounds were served warm", ws.WarmStarts, m.compared)
	}
	if ws.SimplexIters >= cs.SimplexIters {
		t.Errorf("warm controller spent %d simplex iters, cold %d — repricing reduced nothing",
			ws.SimplexIters, cs.SimplexIters)
	}
	t.Logf("rounds=%d warm-served=%d iters warm=%d cold=%d (%.1f%% fewer)",
		m.compared, ws.WarmStarts, ws.SimplexIters, cs.SimplexIters,
		100*(1-float64(ws.SimplexIters)/float64(cs.SimplexIters)))
}

// LastRoundObjective evaluates the most recent round's MILP objective at
// the placements dec it returned for ctx: the sum of the cached round
// model's objective coefficients at the chosen (job, region) pairs. An
// optimizer-decided round places every job of its M-job batch, in batch
// order, so dec indexes the M×N model directly. ok is false when no MILP
// ran this round (before is SolverStats() taken ahead of Schedule) or dec
// fits no model; a greedy fallback that places the whole batch is
// evaluated like a solve, at the same coefficients.
func (s *Scheduler) LastRoundObjective(ctx *cluster.Context, dec []cluster.Decision, before milp.Stats) (float64, bool) {
	after := s.SolverStats()
	if after.WarmStarts+after.ColdStarts == before.WarmStarts+before.ColdStarts || len(dec) == 0 {
		return 0, false
	}
	ids := ctx.Env.IDs()
	rm, ok := s.models[modelKey{len(dec), len(ids)}]
	if !ok {
		return 0, false
	}
	obj := 0.0
	for m, d := range dec {
		n := slices.Index(ids, d.Region)
		if n < 0 {
			return 0, false
		}
		obj += rm.obj[m*len(ids)+n]
	}
	return obj, true
}
