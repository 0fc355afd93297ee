package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"waterwise/internal/lp"
	"waterwise/internal/milp"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/wal"
	"waterwise/internal/wire"
)

// Probes call one layer's public functions directly with the workload's
// own inputs. They run in traced runs only, outside every timed window.

// probeFor is how long one probe loops.
const probeFor = 150 * time.Millisecond

// perOp runs fn repeatedly for about probeFor and returns nanoseconds per
// unit, where each call handles units units.
func perOp(units int, fn func()) float64 {
	fn() // warm caches and grow scratch buffers before timing
	start, calls := time.Now(), 0
	for time.Since(start) < probeFor {
		fn()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*units)
}

// wireProbes times the codec on 256-job frames of the step's own jobs.
func wireProbes(r *run, jobs []*trace.Job) error {
	n := min(closedFrame, len(jobs))
	wj := make([]wire.Job, n)
	wd := make([]wire.Decision, n)
	for i, j := range jobs[:n] {
		wj[i] = server.WireJob(specFor(j))
		wd[i] = server.WireDecision(server.Decision{
			Seq: uint64(i + 1), JobID: j.ID, Region: j.Home, Round: j.Submit,
			Start: j.Submit, Finish: j.Submit.Add(j.Duration), CarbonG: 1.5, WaterL: 0.25,
			DecidedWall: time.Now(),
		}, 0, uint64(i+1))
	}
	var codec wire.Codec
	sub, err := wire.AppendSubmit(nil, wj)
	if err != nil {
		return err
	}
	dec, err := wire.AppendDecisions(nil, uint64(n), wd)
	if err != nil {
		return err
	}
	var buf []byte
	var js []wire.Job
	var ds []wire.Decision
	// The same inputs encoded and decoded without error just above; a
	// failure inside a timed loop would show as a short decode below.
	r.set("wire.bytes_per_job", float64(len(sub)+wire.HeaderSize)/float64(n))
	r.set("wire.encode_submit_ns_per_job", perOp(n, func() { buf, _ = wire.AppendSubmit(buf[:0], wj) }))
	r.set("wire.decode_submit_ns_per_job", perOp(n, func() { js, _ = codec.DecodeSubmit(sub, js[:0]) }))
	r.set("wire.encode_decisions_ns_per_job", perOp(n, func() { buf, _ = wire.AppendDecisions(buf[:0], uint64(n), wd) }))
	r.set("wire.decode_decisions_ns_per_job", perOp(n, func() { ds, _, _ = codec.DecodeDecisions(dec, ds[:0]) }))
	if len(js) != n || len(ds) != n {
		return fmt.Errorf("wire probe decoded %d jobs and %d decisions of %d", len(js), len(ds), n)
	}
	return nil
}

// submitProbes times Server.Submit into an unstarted server, without and
// with the write-ahead log.
func submitProbes(r *run, w *world, jobs []*trace.Job) error {
	jobs = jobs[:min(20000, len(jobs))]
	for _, durable := range []bool{false, true} {
		sched, err := servedScheduler()
		if err != nil {
			return err
		}
		cfg := server.Config{Env: w.env, Net: w.net, FP: w.fp, Scheduler: sched, Tolerance: tolerance}
		name := "server.submit_ns_per_job"
		if durable {
			dir, err := os.MkdirTemp(r.workDir, "probe-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg.DataDir, name = dir, "server.submit_wal_ns_per_job"
		}
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, j := range jobs {
			if _, err := srv.Submit(specFor(j)); err != nil {
				srv.Stop()
				return err
			}
		}
		r.set(name, float64(time.Since(start))/float64(len(jobs)))
		srv.Stop()
	}
	return nil
}

// walProbes times a scratch log with the workload's record size: buffered
// appends, the fsync of a small batch, and sequential replay.
func walProbes(r *run, recordBytes int) error {
	dir, err := os.MkdirTemp(r.workDir, "probe-log-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	payload := make([]byte, max(recordBytes, 16))
	const records, batches = 20000, 40
	var syncMs []float64
	var appendNs time.Duration
	for b := 0; b < batches; b++ {
		a0 := time.Now()
		for i := 0; i < records/batches; i++ {
			if _, err := l.Append(payload); err != nil {
				l.Close()
				return err
			}
		}
		appendNs += time.Since(a0)
		s0 := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return err
		}
		syncMs = append(syncMs, float64(time.Since(s0))/1e6)
	}
	if err := l.Close(); err != nil {
		return err
	}
	r.set("wal.append_ns_per_record", float64(appendNs)/records)
	r.set("wal.sync_p50_ms", median(syncMs))

	l, err = wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer l.Close()
	r0, n := time.Now(), 0
	if err := l.Replay(0, func(uint64, []byte) error { n++; return nil }); err != nil {
		return err
	}
	if n != records {
		return fmt.Errorf("wal probe replayed %d of %d records", n, records)
	}
	r.set("wal.replay_ns_per_record", float64(time.Since(r0))/records)
	return nil
}

// model is what *milp.Problem and *lp.Problem share, so one function can
// fill either with the round-shaped assignment model.
type model interface {
	AddConstraint(terms []lp.Term, op lp.Op, rhs float64) (int, error)
	SetObjective(c []float64, sense lp.Sense) error
	Compile()
}

// probeRegions is the paper's region count.
const probeRegions = 5

// fillAssignment gives p the model the controller solves every round: m
// jobs over 5 regions, one assignment row per job (Eq. 9), one capacity row
// per region (Eq. 10) with total capacity 1.2m, costs drawn from seed. It
// returns the objective so a probe can perturb it.
func fillAssignment(p model, m int, seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	obj := make([]float64, m*probeRegions)
	for v := range obj {
		obj[v] = 0.2 + rng.Float64()
	}
	for j := 0; j < m; j++ {
		terms := make([]lp.Term, probeRegions)
		for n := range terms {
			terms[n] = lp.Term{Var: j*probeRegions + n, Coef: 1}
		}
		if _, err := p.AddConstraint(terms, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	for n := 0; n < probeRegions; n++ {
		terms := make([]lp.Term, m)
		for j := range terms {
			terms[j] = lp.Term{Var: j*probeRegions + n, Coef: 1}
		}
		if _, err := p.AddConstraint(terms, lp.LE, float64((m*12/10+probeRegions-1)/probeRegions)); err != nil {
			return nil, err
		}
	}
	if err := p.SetObjective(obj, lp.Minimize); err != nil {
		return nil, err
	}
	p.Compile()
	return obj, nil
}

// medianUs runs fn reps times and returns the median call in microseconds.
func medianUs(reps int, fn func() error) (float64, error) {
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	sort.Float64s(us)
	return quantile(us, 0.5), nil
}

// solverProbes times the public MILP and LP entry points on round-shaped
// models: 16 jobs (the paper regime), 64 (the default batch cap) and 512
// (the large deployment).
func solverProbes(r *run) error {
	opts := milp.Options{MaxNodes: 500, RelGap: 1e-4, TimeLimit: 250 * time.Millisecond, Workers: 1}
	for _, m := range []int{16, 64, 512} {
		prob := milp.New(m * probeRegions)
		for v := 0; v < m*probeRegions; v++ {
			if err := prob.SetImpliedBinary(v); err != nil {
				return err
			}
		}
		if _, err := fillAssignment(prob, m, r.seed); err != nil {
			return err
		}
		us, err := medianUs(max(5, 2000/m), func() error {
			sol, err := prob.Solve(opts)
			if err == nil && sol.Status != milp.Optimal && sol.Status != milp.Feasible {
				err = fmt.Errorf("milp probe m=%d ended %v", m, sol.Status)
			}
			return err
		})
		if err != nil {
			return err
		}
		r.set(fmt.Sprintf("milp.solve_us.m%d", m), us)
	}
	prob := lp.New(512 * probeRegions)
	obj, err := fillAssignment(prob, 512, r.seed)
	if err != nil {
		return err
	}
	us, err := medianUs(7, func() error {
		sol, err := prob.Solve()
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("lp probe ended %v", sol.Status)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("lp.solve_us.m512", us)
	// Re-price: the next round's costs against the previous round's basis.
	basis := lp.NewBasis()
	if _, err := prob.SolveReprice(basis); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	us, err = medianUs(7, func() error {
		for v := range obj {
			obj[v] *= 0.95 + 0.1*rng.Float64()
		}
		if err := prob.SetObjective(obj, lp.Minimize); err != nil {
			return err
		}
		sol, err := prob.SolveReprice(basis)
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("lp reprice probe ended %v", sol.Status)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("lp.reprice_us.m512", us)
	return nil
}
