package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// run carries one workload run: its inputs, the span log of a traced run,
// and what it measured.
type run struct {
	workload string
	seed     int64
	// seconds is the length of the timed window; iteration workloads start
	// fresh iterations until it is used up.
	seconds float64
	// scale shrinks every committed size (the smoke test runs at 1/50).
	scale float64
	// workDir is where durable-replay puts its data directories.
	workDir string
	spans   *spanLog

	values    map[string]float64
	attempted int
	failed    int
	setups    []float64 // seconds, one per fresh set-up
	// overheadInvalid marks a traced run whose spans cost too much.
	overheadInvalid bool
	notes           []string
}

func newRun(workload string, seed int64, seconds, scale float64, traced bool, workDir string) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, scale: scale,
		workDir: workDir, values: make(map[string]float64),
	}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

func (r *run) traced() bool { return r.spans != nil }

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) add(name string, v float64) { r.values[name] += v }

func (r *run) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// offered counts jobs offered to the system and how many of them were not
// decided exactly once.
func (r *run) offered(jobs, failed int) {
	r.attempted += jobs
	r.failed += failed
}

// markPeak reads the process's memory high-water mark. Workloads call it
// when the timed work is over and before their correctness checks, whose
// reference runs would otherwise be what the mark measures.
func (r *run) markPeak() { r.set("peak_rss_mb", peakRSSMB()) }

// finish derives the metrics every workload reports the same way.
func (r *run) finish() {
	r.set("setup_s", median(r.setups))
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeProbe brackets a timed window with the Go runtime's own counters
// and, meanwhile, samples the live heap so its peak is known.
type runtimeProbe struct {
	before runtime.MemStats
	after  runtime.MemStats
	stop   chan struct{}
	done   sync.WaitGroup
	peak   uint64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				p.peak = max(p.peak, sample[0].Value.Uint64())
			}
		}
	}()
	return p
}

// end stops the sampler and closes the window.
func (p *runtimeProbe) end() {
	close(p.stop)
	p.done.Wait()
	runtime.ReadMemStats(&p.after)
}

// report adds an ended window's GC work to the run.
func (p *runtimeProbe) report(r *run, jobs int) {
	r.add("runtime.gc_cycles", float64(p.after.NumGC-p.before.NumGC))
	r.add("runtime.gc_pause_ms", float64(p.after.PauseTotalNs-p.before.PauseTotalNs)/1e6)
	r.set("runtime.heap_peak_mb", max(r.values["runtime.heap_peak_mb"], float64(p.peak)/(1<<20)))
	if jobs > 0 {
		r.set("runtime.alloc_bytes_per_job", float64(p.after.TotalAlloc-p.before.TotalAlloc)/float64(jobs))
	}
}

// finish ends the window and reports it.
func (p *runtimeProbe) finish(r *run, jobs int) {
	p.end()
	p.report(r, jobs)
}
