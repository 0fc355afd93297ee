package main

import (
	"fmt"
	"io"
	"net/http"
	"syscall"
	"testing"
	"time"

	"waterwise/internal/obs"
)

// TestDaemonMetricsLint is the end-to-end observability smoke test (and
// the test the CI metrics-lint job runs): boot a real waterwised with
// JSON logs and a pprof listener, drive jobs through it, and require the
// complete /metrics exposition to pass the strict parser — every series
// documented, every histogram cumulative — with the latency families
// present, the trace endpoints answering, and pprof serving.
func TestDaemonMetricsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon process")
	}
	const jobs = 200
	port := freePort(t)
	debugPort := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := startDaemon(t, base,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-timescale", "0",
		"-log-format", "json", "-log-level", "debug",
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", debugPort),
	)
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_, _ = cmd.Process.Wait()
	}()
	submitJobs(t, base, jobs)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := getStatus(t, base); st.Decisions >= jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never decided the workload")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseProm(metrics)
	if err != nil {
		t.Fatalf("daemon /metrics does not parse: %v\n%s", err, metrics)
	}
	if err := obs.LintProm(metrics); err != nil {
		t.Fatalf("daemon /metrics fails lint: %v", err)
	}
	for _, name := range []string{
		"waterwise_decision_latency_seconds",
		"waterwise_ingest_request_seconds",
		"waterwise_round_duration_seconds",
		"waterwise_round_stage_seconds",
		"waterwise_decisions_total",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from daemon /metrics", name)
		}
	}
	_, cums := obs.HistogramBuckets(fams["waterwise_fleet_decision_latency_seconds"], nil)
	if len(cums) == 0 || cums[len(cums)-1] != jobs {
		t.Errorf("decision latency count: %v, want %d", cums, jobs)
	}

	resp, err = http.Get(base + "/v1/rounds/slowest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("rounds endpoint: status %d", resp.StatusCode)
	}

	resp, err = http.Get(fmt.Sprintf("http://127.0.0.1:%d/debug/pprof/", debugPort))
	if err != nil {
		t.Fatalf("pprof listener not serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
}
