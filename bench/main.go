// Command bench is the repository's one benchmark: six workloads that
// between them put every layer of a job's life — wire frame, server,
// write-ahead log, simulator, slack manager, MILP and simplex — on the
// critical path of at least one end-to-end number. README.md has the
// workloads, the metrics and how to read them.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, for the driver
//	bench [--trace 1]                                     the whole suite, one process per workload
//	bench --agree                                         two sets of three passes on one seed, one pass on a fresh one
//	bench --spread 10                                     ten seeds per workload; writes PROVENANCE.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its implementation. The names are
// fixed: BENCHMARK.json and later issues refer to them.
var workloads = map[string]func(*run) error{
	"stream-steady":  runStreamSteady,
	"durable-replay": runDurableReplay,
	"paper-replay":   runOffline,
	"large-replay":   runOffline,
	"flash-backlog":  runOffline,
	"fleet-drain":    runFleetDrain,
}

// workloadOrder is the order the suite runs and prints them in.
var workloadOrder = []string{
	"stream-steady", "durable-replay", "paper-replay", "large-replay", "flash-backlog", "fleet-drain",
}

const (
	// benchmarkJSON fixes the bounds of the end-to-end metrics; like every
	// path here it is relative to the repository root.
	benchmarkJSON = "BENCHMARK.json"
	// outDir receives span files and durable-replay's data directories.
	outDir = "bench/out"
	// provenanceJSON is where --spread records what it measured.
	provenanceJSON = "bench/PROVENANCE.json"
	// freshSeed was not used while the benchmark was developed.
	freshSeed = 20260928
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	agree    bool
	spread   int
}

func main() {
	started := time.Now()
	if spec := os.Getenv(clientEnv); spec != "" {
		clientMain(spec, started)
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "the only input to trace and environment generation")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of each workload's timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans around every call into a layer and reports the per-layer metrics")
	flag.BoolVar(&o.agree, "agree", false, "measure two sets of runs on -seed and one pass on a fresh seed; fail if an end-to-end metric differs between the sets by more than its bound")
	flag.IntVar(&o.spread, "spread", 0, "run every workload on this many seeds, print each metric's spread, and write PROVENANCE.json")
	flag.Parse()
	// Paths are relative to the repository root; `go run -C bench .` starts
	// one level below it.
	if _, err := os.Stat(benchmarkJSON); err != nil {
		if _, err := os.Stat(filepath.Join("..", benchmarkJSON)); err == nil {
			_ = os.Chdir("..") // a failure shows as the missing file below
		}
	}

	var err error
	switch {
	case o.workload != "":
		err = single(o)
	case o.agree:
		err = agree(o)
	case o.spread > 0:
		err = spreadRuns(o)
	default:
		err = suite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, seconds, scale float64, traced bool, workDir string) (*run, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(name, seed, seconds, scale, traced, workDir)
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.finish()
	if r.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d jobs were not decided exactly once", name, r.failed, r.attempted)
	}
	// Judged at the committed sizes only: scaled-down iterations are too
	// short for their difference to mean anything.
	if r.overheadInvalid && scale >= 1 {
		return nil, fmt.Errorf("%s: invalid traced run: tracing cost %.0f%% (limit %.0f%%) in every pair of measurements",
			name, 100*r.values["trace_overhead_frac"], 100*maxOverhead)
	}
	if err := r.spans.write(workDir, name); err != nil {
		return nil, err
	}
	return r, nil
}

// measured is one reported value with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's result line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// defs are the metrics a run of this kind reports: the end-to-end ones
// untraced, the per-layer ones traced.
func (r *run) defs() []metric {
	if r.traced() {
		return perLayer
	}
	return endToEnd
}

// report is the run's result line.
func (r *run) report() (*result, error) {
	out := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]measured)}
	for _, m := range r.defs() {
		v, ok := r.values[m.Name]
		if !ok && !r.traced() {
			return nil, fmt.Errorf("%s did not measure %s", r.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s measured %s = %v", r.workload, m.Name, v)
		}
		out.Metrics[m.Name] = measured{v, m.Unit}
	}
	return out, nil
}

// single is the driver's mode: one workload, every metric by name with its
// unit, and the result object as the last line.
func single(o options) error {
	r, err := runWorkload(o.workload, o.seed, o.seconds, 1, o.trace == 1, outDir)
	if err != nil {
		return err
	}
	res, err := r.report()
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d, %gs timed, %d jobs offered\n", o.workload, o.seed, o.seconds, r.attempted)
	for _, m := range r.defs() {
		fmt.Printf("  %-34s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	if r.traced() {
		// Where the traced iterations' time went, layer by layer.
		self := selfTimes(r.spans.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
		fmt.Println("  self time by span:")
		for _, n := range names {
			fmt.Printf("    %-32s %10.4f s\n", n, self[n].Seconds())
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
