package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// The daemon end-to-end crash test runs this test binary as waterwised
// itself: with WATERWISED_HELPER=1 the process skips the test runner and
// enters main(), so the test can exec os.Args[0], SIGKILL it mid-run,
// and restart it — a real process dying with a real unsynced WAL buffer,
// not an in-process simulation of one.
func TestMain(m *testing.M) {
	if os.Getenv("WATERWISED_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wireDecision mirrors the /v1/decisions entry fields the equivalence
// check compares (everything but decided_wall).
type wireDecision struct {
	Seq     uint64    `json:"seq"`
	JobID   int       `json:"job_id"`
	Region  string    `json:"region"`
	Round   time.Time `json:"round"`
	Start   time.Time `json:"start"`
	Finish  time.Time `json:"finish"`
	CarbonG float64   `json:"carbon_g"`
	WaterL  float64   `json:"water_l"`
}

type wirePage struct {
	Decisions []wireDecision `json:"decisions"`
	Next      uint64         `json:"next"`
}

type wireStatus struct {
	Pending   int    `json:"pending"`
	Future    int    `json:"future"`
	Accepted  uint64 `json:"accepted"`
	Decisions uint64 `json:"decisions"`
	WAL       *struct {
		Appended         uint64 `json:"appended"`
		Synced           uint64 `json:"synced"`
		RecoveredRecords uint64 `json:"recovered_records"`
		Recovered        bool   `json:"recovered_snapshot"`
	} `json:"wal"`
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startDaemon execs this test binary as waterwised with the given flags
// and waits until /v1/status answers.
func startDaemon(t *testing.T, base string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WATERWISED_HELPER=1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("daemon never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getStatus(t *testing.T, base string) wireStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wireStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getDecisions(t *testing.T, base string) []wireDecision {
	t.Helper()
	resp, err := http.Get(base + "/v1/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page wirePage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page.Decisions
}

// submitJobs posts ids [1..n] as live canneal jobs, retrying each on
// connection errors (the client side of the idempotency contract).
func submitJobs(t *testing.T, base string, n int) {
	t.Helper()
	for id := 1; id <= n; id++ {
		body, _ := json.Marshal(map[string]interface{}{
			"id": id, "benchmark": "canneal", "home": "zurich",
		})
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				lastErr = err
				time.Sleep(20 * time.Millisecond)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit job %d: status %d", id, resp.StatusCode)
			}
			lastErr = nil
			break
		}
		if lastErr != nil {
			t.Fatalf("submit job %d: %v", id, lastErr)
		}
	}
}

// TestRejectsShardCountBelowOne runs the daemon with a shard count that
// used to fall through to a single server silently: it must exit non-zero
// naming the flag, before binding anything.
func TestRejectsShardCountBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-timescale", "0", "-shards", n)
		cmd.Env = append(os.Environ(), "WATERWISED_HELPER=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if _, exited := err.(*exec.ExitError); !exited || timedOut {
			t.Fatalf("-shards %s: err = %v, want a non-zero exit; output:\n%s", n, err, out)
		}
		if !bytes.Contains(out, []byte("-shards")) {
			t.Errorf("-shards %s: error does not name the flag:\n%s", n, out)
		}
	}
}

// TestRejectsBadFlags runs the daemon with flag values it must refuse
// before binding anything, each with an error naming the culprit: a
// region pinned twice (the last pin used to win silently) and two SLO
// objectives sharing a name (their alerts used to be indistinguishable
// in /v1/alerts), among other malformed maps and objectives.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"region pinned twice", []string{"-shards", "2", "-shard-map", "zurich=0,zurich=1"}, `"zurich"`},
		{"region pinned twice, same shard", []string{"-shards", "2", "-shard-map", "oregon=1, oregon=1"}, `"oregon"`},
		{"pin not region=shard", []string{"-shards", "2", "-shard-map", "zurich"}, `"zurich"`},
		{"shard map without shards", []string{"-shard-map", "zurich=0"}, "-shard-map"},
		{"two latency objectives", []string{"-slo", "latency:0.99@250ms,latency:0.9@50ms"}, `"latency"`},
		{"two latency objectives, fleet", []string{"-shards", "2", "-slo", "latency:0.99@250ms,latency:0.9@50ms"}, `"latency"`},
		{"unknown objective kind", []string{"-slo", "throughput:0.9"}, `"throughput"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-timescale", "0"}, tc.args...)...)
			cmd.Env = append(os.Environ(), "WATERWISED_HELPER=1")
			out, err := cmd.CombinedOutput()
			if _, exited := err.(*exec.ExitError); !exited || ctx.Err() != nil {
				t.Fatalf("err = %v, want a non-zero exit; output:\n%s", err, out)
			}
			if !bytes.Contains(out, []byte(tc.want)) {
				t.Errorf("error does not name %s:\n%s", tc.want, out)
			}
		})
	}
}

// TestCrashRecoverySIGKILL is the end-to-end durability proof at the
// process level: SIGKILL a running waterwised mid-run, restart it over
// the same -data-dir, re-submit the workload (idempotent retries), and
// the recovered daemon's decision stream must reproduce every decision
// the dead process had served — same seqs, same placements, no gaps, no
// renumbering — then finish the workload.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const jobs = 600
	dir := t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-timescale", "0", "-data-dir", dir, "-snapshot-every", "200",
	}

	cmd := startDaemon(t, base, args...)
	submitJobs(t, base, jobs)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, base)
		if st.Decisions >= jobs/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Everything /v1/decisions has served is durable (rounds fsync before
	// publishing), so this snapshot is the floor the restart must match.
	before := getDecisions(t, base)
	if len(before) == 0 {
		t.Fatal("no decisions served before the kill")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cmd2 := startDaemon(t, base, args...)
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_, _ = cmd2.Process.Wait()
	}()
	st := getStatus(t, base)
	if st.WAL == nil || (!st.WAL.Recovered && st.WAL.RecoveredRecords == 0) {
		t.Fatalf("restart recovered nothing: %+v", st.WAL)
	}
	// Re-submit the whole workload: decided ids dedupe to their original
	// decision, acked-but-unfsynced ids become real jobs now.
	submitJobs(t, base, jobs)
	for {
		st := getStatus(t, base)
		if st.Decisions >= jobs && st.Pending == 0 && st.Future == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered daemon never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	after := getDecisions(t, base)
	if len(after) != jobs {
		t.Fatalf("final stream has %d decisions, want %d", len(after), jobs)
	}
	for i, w := range before {
		g := after[i]
		if g.Seq != w.Seq || g.JobID != w.JobID || g.Region != w.Region ||
			!g.Round.Equal(w.Round) || !g.Start.Equal(w.Start) || !g.Finish.Equal(w.Finish) ||
			g.CarbonG != w.CarbonG || g.WaterL != w.WaterL {
			t.Fatalf("recovered decision %d diverged:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
	seen := make(map[int]bool, jobs)
	for i, d := range after {
		if d.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: %d", i, d.Seq)
		}
		if seen[d.JobID] {
			t.Fatalf("job %d decided twice after recovery", d.JobID)
		}
		seen[d.JobID] = true
	}
}

// TestHTTPServerTimeouts pins the connection bounds both listeners are
// built with: a client that trickles a request or idles forever is cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NewServeMux())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s unset", name)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
