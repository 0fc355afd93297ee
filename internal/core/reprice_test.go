package core

import (
	"math"
	"testing"
	"time"

	"waterwise/internal/cluster"
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
	warmDec, err := m.warm.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	coldDec, err := m.cold.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	warmObj, warmOK := m.warm.LastRoundObjective()
	coldObj, coldOK := m.cold.LastRoundObjective()
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

// LastRoundObjective reports the MILP objective of the most recent
// scheduling round, and whether that round was decided by the optimizer
// (false when the round fell back to the greedy controller or decided
// nothing).
func (s *Scheduler) LastRoundObjective() (float64, bool) { return s.lastObj, s.lastObjSet }
