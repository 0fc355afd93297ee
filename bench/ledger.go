package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ledger is the job-life ledger of a streamed step, kept entirely on the
// client side: one row per offered job, indexed by the client-assigned job
// id, with the wall instants (Unix nanoseconds; the client and the server
// are two processes reading one machine clock) the job passed each boundary. The sender fills
// due and sent; the reader fills the rest. A reply and a pushed decision
// may arrive in either order — both only fill their own columns, so the
// order cannot change a latency.
type ledger struct {
	due     []int64 // when the open-loop schedule wanted the job sent
	sent    []int64 // when its Submit frame was handed to the connection
	decided []int64 // the server's DecidedWallNano, off the wire
	seen    []int64 // when the client decoded the pushed decision
	okays   []uint8 // SubmitOK replies received
	rejects []uint8 // any other reply code
	pushes  []uint8 // decisions received
}

func newLedger(jobs int) *ledger {
	return &ledger{
		due: make([]int64, jobs), sent: make([]int64, jobs),
		decided: make([]int64, jobs), seen: make([]int64, jobs),
		okays: make([]uint8, jobs), rejects: make([]uint8, jobs), pushes: make([]uint8, jobs),
	}
}

// replied records one per-job result of a SubmitReply frame.
func (l *ledger) replied(id int, ok bool) {
	if ok {
		l.okays[id]++
	} else {
		l.rejects[id]++
	}
}

// pushed records one decoded decision.
func (l *ledger) pushed(id int, decidedWall, now int64) {
	l.pushes[id]++
	l.decided[id] = decidedWall
	l.seen[id] = now
}

// failures says, for the first n jobs, how each job that is not good went
// wrong, and names the first such job.
func (l *ledger) failures(n int) string {
	var unanswered, rejected, undecided, repeated int
	first := -1
	for id := 0; id < n; id++ {
		if l.good(id) {
			continue
		}
		if first < 0 {
			first = id
		}
		switch {
		case l.rejects[id] > 0:
			rejected++
		case l.okays[id] == 0:
			unanswered++
		case l.pushes[id] == 0:
			undecided++
		default:
			repeated++
		}
	}
	if first < 0 {
		return ""
	}
	return fmt.Sprintf("%d without a reply, %d rejected, %d never decided, %d accepted or decided twice; first is job %d",
		unanswered, rejected, undecided, repeated, first)
}

// good reports whether job id was accepted once and decided once.
func (l *ledger) good(id int) bool {
	return l.okays[id] == 1 && l.rejects[id] == 0 && l.pushes[id] == 1
}

const (
	// segment is the span of due time validity is judged over: a stall of
	// the generator invalidates the half second it fell in, not the step.
	segment = 500 * time.Millisecond
	// lateLimitMs invalidates a segment: a generator that sent later than
	// this at p99 measured itself there, not the server.
	lateLimitMs = 5.0
	// rateWindow is the span closed-loop throughput is counted over.
	rateWindow = 100 * time.Millisecond
	// latWindow is the span of due time one end-to-end latency sample is
	// taken over: 300 jobs at 12 000 jobs/s, so a window's p90 still has 30
	// jobs beyond it. Windows of 5 and 10 ms spread no less between runs.
	latWindow = 25 * time.Millisecond
	// calmLatShare and calmRateShare are the share of a step's windows, the
	// calmest, whose edge is reported: the 2nd percentile across the ~420
	// latency windows' percentiles (the eighth calmest window), the top decile
	// across the ~24 throughput windows' rates.
	calmLatShare  = 0.02
	calmRateShare = 0.1
)

// latencies are the ledger's per-job intervals in milliseconds, sorted,
// over the offered jobs of the segments in which the generator kept its
// schedule.
type latencies struct {
	total  []float64 // due -> seen; +Inf for a job not decided exactly once
	late   []float64 // due -> sent
	server []float64 // sent -> decided (decode, Submit, queue wait, round)
	push   []float64 // decided -> seen (pusher poll, encode, TCP, decode)
	// failed counts, over every offered job, those not accepted once and
	// decided once.
	failed      int
	invalidFrac float64 // share of offered jobs in invalid segments
	rawLateP99  float64 // generator lateness over all offered jobs
}

// latencies digests the first n rows. With segmented set (open loop) the
// jobs are grouped into half-second segments of due time and a segment whose
// sends ran more than lateLimitMs late at p99 is left out of the intervals
// (unless that leaves nothing).
func (l *ledger) latencies(n int, segmented bool) latencies {
	var out latencies
	ms := func(from, to int64) float64 { return float64(to-from) / 1e6 }
	valid := func(int) bool { return true }
	if segmented && n > 0 {
		var all []float64
		bySeg := make(map[int64][]float64)
		for id := 0; id < n; id++ {
			late := ms(l.due[id], l.sent[id])
			all = append(all, late)
			seg := (l.due[id] - l.due[0]) / int64(segment)
			bySeg[seg] = append(bySeg[seg], late)
		}
		sort.Float64s(all)
		out.rawLateP99 = quantile(all, 0.99)
		bad, invalid := make(map[int64]bool), 0
		for seg, lates := range bySeg {
			sort.Float64s(lates)
			if quantile(lates, 0.99) > lateLimitMs {
				bad[seg] = true
				invalid += len(lates)
			}
		}
		out.invalidFrac = float64(invalid) / float64(n)
		if invalid < n {
			valid = func(id int) bool { return !bad[(l.due[id]-l.due[0])/int64(segment)] }
		}
		// With every segment invalid nothing can be left out: the intervals
		// cover all jobs and invalidFrac = 1 says what they are worth.
	}
	for id := 0; id < n; id++ {
		good := l.good(id)
		if !good {
			out.failed++
		}
		if !valid(id) {
			continue
		}
		out.late = append(out.late, ms(l.due[id], l.sent[id]))
		if !good {
			out.total = append(out.total, math.Inf(1))
			continue
		}
		out.total = append(out.total, ms(l.due[id], l.seen[id]))
		out.server = append(out.server, ms(l.sent[id], l.decided[id]))
		out.push = append(out.push, ms(l.decided[id], l.seen[id]))
	}
	for _, s := range [][]float64{out.total, out.late, out.server, out.push} {
		sort.Float64s(s)
	}
	return out
}

// windowed is the end-to-end latency of an open-loop step: the first n jobs
// are cut into latWindow windows of due time, each window gives its own p50
// and p90 of due -> seen (a job not decided exactly once counts as +Inf), and
// the figure is the calmLatShare quantile across the windows. The machine's
// other tenants stall a vCPU for 2-5 ms some ten times a second, and for tens
// of milliseconds now and then; a stall only ever adds latency, to the windows
// it falls in, so the calmest windows are the ones that timed the program.
// Over four ten-run sets on a busy host the whole step's p50 and p90 spread
// 13-54% and 37-412% of their medians, the windows' lowest deciles 6-23% and
// 5-22%, their 2nd percentiles 6-20% and 3-13% (README, Validity); the 20% is
// a host that takes a fifth of the machine away for minutes, which leaves no
// calm window and which nothing here can undo. A change that slows
// every job moves every window and shows; one that only adds rare stalls
// shows in client.decision_p99_ms. The partial last window is left out.
func (l *ledger) windowed(n int) (p50, p90 float64, windows int) {
	if n == 0 {
		return 0, 0, 0
	}
	var p50s, p90s, win []float64
	flush := func() {
		sort.Float64s(win)
		p50s, p90s = append(p50s, quantile(win, 0.5)), append(p90s, quantile(win, 0.9))
		win = win[:0]
	}
	cur := int64(0)
	for id := 0; id < n; id++ { // jobs are in due order
		if w := (l.due[id] - l.due[0]) / int64(latWindow); w != cur {
			flush()
			cur = w
		}
		ms := math.Inf(1)
		if l.good(id) {
			ms = float64(l.seen[id]-l.due[id]) / 1e6
		}
		win = append(win, ms)
	}
	if len(p50s) == 0 {
		flush() // a step shorter than one window is its own window
	}
	sort.Float64s(p50s)
	sort.Float64s(p90s)
	return quantile(p50s, calmLatShare), quantile(p90s, calmLatShare), len(p50s)
}

// windowRates counts decoded decisions per 100 ms window between from and
// to and returns each window's rate per second, leaving out the ramp-up
// window and the partial last one. A hiccup of the machine then costs the
// windows it falls in, not the step. With fewer than five windows the plain
// average is the only rate.
func (l *ledger) windowRates(n int, from, to int64) []float64 {
	if n == 0 || to <= from {
		return nil
	}
	windows := int((to - from) / int64(rateWindow))
	if windows < 5 {
		decided := 0
		for id := 0; id < n; id++ {
			if l.good(id) {
				decided++
			}
		}
		return []float64{float64(decided) / (float64(to-from) / 1e9)}
	}
	rates := make([]float64, windows)
	for id := 0; id < n; id++ {
		if w := int((l.seen[id] - from) / int64(rateWindow)); l.good(id) && w >= 0 && w < windows {
			rates[w] += 1 / rateWindow.Seconds()
		}
	}
	return rates[1:]
}

// within is the share of all offered jobs whose total latency met limit.
func (lat *latencies) within(limitMs float64) float64 {
	if len(lat.total) == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(lat.total, math.Nextafter(limitMs, math.Inf(1)))) / float64(len(lat.total))
}
