package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// benchmarkFile is BENCHMARK.json, the contract the driver checks the
// benchmark against. Only what this program needs is decoded.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) bound(name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// child runs one workload in a process of its own — so that peak_rss_mb is
// that workload's alone — and parses the result line it prints last.
func child(o options, workload string, seed int64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d jobs failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// suiteRun is one pass over every workload: results[workload][metric].
type suiteRun map[string]map[string]float64

// runSuite runs every workload once, untraced, and with trace set once more
// traced; it prints each metric by name with its unit as it goes.
func runSuite(o options, seed int64, traced bool) (suiteRun, error) {
	out := make(suiteRun)
	for _, w := range workloadOrder {
		res, err := child(o, w, seed, 0)
		if err != nil {
			return nil, err
		}
		out[w] = make(map[string]float64)
		fmt.Printf("%s  (seed %d, %d jobs offered, %d failed)\n", w, seed, res.Attempted, res.Failed)
		for _, m := range endToEnd {
			out[w][m.Name] = res.Metrics[m.Name].Value
			fmt.Printf("  %-34s %14.6g %-7s %s is better\n", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
		}
		if !traced {
			continue
		}
		if res, err = child(o, w, seed, 1); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			if v := res.Metrics[m.Name].Value; v != 0 {
				out[w][m.Name] = v
				fmt.Printf("    %-32s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	return out, nil
}

// summary is the JSON the suite ends with. The benchmark claims no gain:
// it is the thing later claims are measured against.
type summary struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Results suiteRun `json:"results"`
	Claim   *string  `json:"claim"`
}

func suite(o options) error {
	res, err := runSuite(o, o.seed, o.trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(summary{Seed: o.seed, Seconds: o.seconds, Results: res})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// worse is by how much b is worse than a, as a share of a.
func worse(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// deterministic names the end-to-end metrics that are a function of the
// seed alone wherever the simulated clock is driven by the trace, which is
// every workload but stream-steady.
var deterministic = map[string]bool{
	"carbon_vs_baseline_pct": true, "water_vs_baseline_pct": true, "tolerance_violation_pct": true,
}

// agreeRuns is how many passes make one set: like the driver, agree
// compares medians, because a single run's p90 can swing by its bound.
const agreeRuns = 3

// medianSuite runs the suite agreeRuns times on one seed and takes, per
// workload and metric, the median.
func medianSuite(o options, seed int64) (suiteRun, error) {
	samples := make(map[string]map[string][]float64)
	for i := 0; i < agreeRuns; i++ {
		pass, err := runSuite(o, seed, false)
		if err != nil {
			return nil, err
		}
		for w, ms := range pass {
			if samples[w] == nil {
				samples[w] = make(map[string][]float64)
			}
			for m, v := range ms {
				samples[w][m] = append(samples[w][m], v)
			}
		}
	}
	out := make(suiteRun)
	for w, ms := range samples {
		out[w] = make(map[string]float64)
		for m, vs := range ms {
			out[w][m] = median(vs)
		}
	}
	return out, nil
}

// agree measures two sets of runs on one seed — each the median of
// agreeRuns passes — and requires every end-to-end metric of the second to
// differ from the first by no more than its bound, in either direction:
// both sets ran the same code. Then it runs the suite once on a seed not
// used during development, where every correctness check must pass too.
func agree(o options) error {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	first, err := medianSuite(o, o.seed)
	if err != nil {
		return err
	}
	second, err := medianSuite(o, o.seed)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("\n%-15s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloadOrder {
		for _, m := range endToEnd {
			a, b := first[w][m.Name], second[w][m.Name]
			diff, bound := math.Abs(worse(m, a, b)), bf.bound(m.Name)
			verdict := ""
			if deterministic[m.Name] && w != "stream-steady" {
				if bound = 0; a != b {
					verdict = "  DOES NOT REPEAT"
				}
			} else if diff > bound {
				verdict = "  DISAGREES"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-15s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w, m.Name, a, b, 100*diff, 100*bound, verdict)
		}
	}
	fmt.Printf("\nfresh seed %d: every check must pass\n", freshSeed)
	if _, err := runSuite(o, freshSeed, false); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two sets of runs of the same code by more than their bound", bad)
	}
	fmt.Println("the two sets agree on every end-to-end metric within its bound")
	return nil
}

// provenance is what PROVENANCE.json records beside BENCHMARK.json, whose
// keys are fixed by the driver's contract: where, how and with what result
// the committed numbers were measured.
type provenance struct {
	Command     []string                         `json:"command"`
	SuiteCmds   []string                         `json:"other_commands"`
	RunSeconds  float64                          `json:"run_seconds"`
	Seeds       []int64                          `json:"seeds"`
	Nproc       int                              `json:"nproc"`
	GoVersion   string                           `json:"go_version"`
	WALDir      string                           `json:"wal_dir"`
	WALRealDisk bool                             `json:"wal_dir_on_real_disk"`
	Sizes       map[string]string                `json:"workload_sizes"`
	Metrics     []provMetric                     `json:"end_to_end"`
	Untraced    map[string]map[string]provSample `json:"untraced"`
}

type provMetric struct {
	metric
	Bound float64 `json:"bound"`
}

// provSample is one metric on one workload over the seeds: quartiles as the
// driver computes them, and their distance as a share of the median.
type provSample struct {
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	Spread  float64 `json:"spread"`
	Samples int     `json:"samples"`
}

// workloadSizes states each workload's committed size in words.
var workloadSizes = map[string]string{
	"stream-steady":  "open loop 12000 jobs/s for 0.7 x seconds at 20 jobs per simulated minute (latency is the 2nd percentile over 25 ms windows), then five closed-loop steps (256-job frames, <=2048 in flight) of 20000/3 x seconds jobs each (throughput is the top decile over their 100 ms windows); 5 regions x 35 servers; load generator in a child process",
	"durable-replay": "3-day Borg-like trace at 23000 jobs/day (~58k jobs), DurationScale 0.3, 512-job JSON POSTs, 5 ms polls, real fsync; ~10 iterations",
	"paper-replay":   "10 days x 23000 jobs/day (~219k jobs), DurationScale 0.3, 5 regions x 35 servers, TOL 0.5; ~13 iterations",
	"large-replay":   "1M jobs/day x 8 simulated hours (~140k jobs), DurationScale 0.15, 5 regions x 400 servers, MaxBatch 1000; ~10 iterations",
	"flash-backlog":  "24 h x 23000 jobs/day with a x10 flash crowd for 2 h from hour 6 (~40k jobs, ~15k pending at the peak); 3 iterations",
	"fleet-drain":    "2 shards, the paper-replay trace submitted up front, merged stream tailed in 4096-decision pages every 5 ms; ~12 iterations",
}

// spreadRuns runs every workload on seeds 1..N, prints per metric the
// quartile spread the driver will judge, and records it all in
// PROVENANCE.json beside this program's sources.
func spreadRuns(o options) error {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prov := provenance{
		Command: bf.Command,
		SuiteCmds: []string{
			"go run -C bench .              # the suite, untraced",
			"go run -C bench . --trace 1    # the suite, untraced then traced",
			"go run -C bench . --agree      # two sets of 3 passes on one seed, one pass on a fresh seed",
			"go run -C bench . --spread 10  # this file",
		},
		RunSeconds: o.seconds, Nproc: runtime.NumCPU(), GoVersion: runtime.Version(),
		WALDir: outDir, WALRealDisk: onRealDisk(outDir), Sizes: workloadSizes,
		Untraced: make(map[string]map[string]provSample),
	}
	for _, m := range endToEnd {
		prov.Metrics = append(prov.Metrics, provMetric{m, bf.bound(m.Name)})
	}
	for s := int64(1); s <= int64(o.spread); s++ {
		prov.Seeds = append(prov.Seeds, s)
	}
	over := 0
	for _, w := range workloadOrder {
		samples := make(map[string][]float64)
		for _, seed := range prov.Seeds {
			res, err := child(o, w, seed, 0)
			if err != nil {
				return err
			}
			for _, m := range endToEnd {
				samples[m.Name] = append(samples[m.Name], res.Metrics[m.Name].Value)
			}
		}
		prov.Untraced[w] = make(map[string]provSample)
		fmt.Printf("%s over %d seeds\n", w, len(prov.Seeds))
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(samples[m.Name])
			sp, bound := spread(samples[m.Name]), bf.bound(m.Name)
			prov.Untraced[w][m.Name] = provSample{q1, q2, q3, sp, len(samples[m.Name])}
			verdict := ""
			switch {
			case m.Name == "setup_s":
			case sp > bound:
				verdict, over = "  OVER ITS BOUND", over+1
			case sp > bound/3:
				verdict = "  over a third of its bound"
			}
			fmt.Printf("  %-26s q1 %12.6g  median %12.6g  q3 %12.6g  spread %6.2f%%  bound %3.0f%%%s\n",
				m.Name, q1, q2, q3, 100*sp, 100*bound, verdict)
		}
	}
	data, err := json.MarshalIndent(prov, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(provenanceJSON, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", provenanceJSON)
	if over > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", over)
	}
	return nil
}
