package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"waterwise/internal/server"
)

// TestGatewayDeadShardOverflowHTTP is the end-to-end backpressure test:
// during a kill window the gateway's HTTP ingest keeps accepting the
// dead shard's submissions into the bounded buffer, answers 429 once the
// buffer is full, and flushes the buffered jobs — all of them decided,
// global seqs dense — when the shard restarts.
func TestGatewayDeadShardOverflowHTTP(t *testing.T) {
	env := testEnv(t)
	fl, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Shards: 2,
		Tolerance: 0.5, Round: time.Minute, DataDir: t.TempDir(), QueueCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	ts := httptest.NewServer(fl.Handler())
	defer ts.Close()
	post := func(spec server.JobSpec) (server.SubmitResponse, int) {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+server.PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr server.SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return sr, resp.StatusCode
	}

	deadHome := fl.Partitions()[0][0]
	if err := fl.KillShard(0); err != nil {
		t.Fatal(err)
	}
	buffered := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		sr, code := post(server.JobSpec{Benchmark: "canneal", Home: deadHome, Submit: testStart.Add(time.Hour)})
		if code != http.StatusAccepted || len(sr.Accepted) != 1 {
			t.Fatalf("buffered submit %d during kill window: status %d, %+v", i, code, sr)
		}
		buffered = append(buffered, sr.Accepted[0])
	}
	if _, code := post(server.JobSpec{Benchmark: "canneal", Home: deadHome, Submit: testStart.Add(time.Hour)}); code != http.StatusTooManyRequests {
		t.Fatalf("buffer overflow through the gateway: status %d, want 429", code)
	}

	if err := fl.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	fl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	decided := make(map[int]bool)
	for i, d := range fl.Decisions(0, 0) {
		if d.Seq != uint64(i)+1 {
			t.Fatalf("global seq gap after flush: decision %d has seq %d", i, d.Seq)
		}
		decided[d.JobID] = true
	}
	for _, id := range buffered {
		if !decided[id] {
			t.Fatalf("buffered job %d never decided after restart", id)
		}
	}
	if st := fl.Status(); st.Err != "" {
		t.Fatalf("fleet still reports a failure after restart: %s", st.Err)
	}
}
