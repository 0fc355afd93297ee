package main

import "time"

// maxOverhead invalidates a traced run: spans that slow the workload's
// primary metric by more than this measured the tracing, not the program.
const maxOverhead = 0.10

// setOverhead reports the tracing overhead from its per-pair estimates,
// each (traced - plain) / plain of one traced and one plain measurement
// taken back to back. The figure is their median. The run is invalid only
// if at least two pairs exist and every one is over maxOverhead: real
// overhead shows in every pair, the machine's noise does not.
func (r *run) setOverhead(pairs []float64) {
	if len(pairs) == 0 {
		return
	}
	r.set("trace_overhead_frac", median(pairs))
	r.overheadInvalid = len(pairs) >= 2 && allOver(pairs)
}

func allOver(pairs []float64) bool {
	for _, p := range pairs {
		if p <= maxOverhead {
			return false
		}
	}
	return true
}

// loop runs an iteration workload: fresh iterations until the timed window
// is used up. In a traced run the iterations alternate traced and plain, so
// that each pair's difference is the tracing overhead measured back to back
// inside one process.
type loop struct {
	r        *run
	walls    []float64 // seconds of timed work, one per iteration
	extended bool
}

// next reports whether another iteration should start.
func (l *loop) next() bool {
	n := len(l.walls)
	if n == 0 {
		return true
	}
	timed := 0.0
	for _, w := range l.walls {
		timed += w
	}
	// Stop once another iteration would overshoot by more than it adds.
	if timed+l.walls[n-1]/2 < l.r.seconds {
		return true
	}
	if !l.r.traced() {
		return false
	}
	if n%2 == 1 {
		return true // finish the traced/plain pair
	}
	if !l.extended && allOver(l.pairs()) {
		// One noisy iteration can fake an overhead: measure another pair
		// before calling the run invalid.
		l.extended = true
		return true
	}
	return false
}

// spans is the span log of the iteration about to start: the run's own for
// a traced iteration, nil for a plain one.
func (l *loop) spans() *spanLog {
	if len(l.walls)%2 == 0 {
		return l.r.spans
	}
	return nil
}

func (l *loop) done(wall time.Duration) { l.walls = append(l.walls, wall.Seconds()) }

// pairs is (traced - plain) / plain for every completed pair of iterations.
func (l *loop) pairs() []float64 {
	var out []float64
	for i := 0; i+1 < len(l.walls); i += 2 {
		out = append(out, (l.walls[i]-l.walls[i+1])/l.walls[i+1])
	}
	return out
}
